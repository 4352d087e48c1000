// Package mac is the out-of-netsim write corpus: //fdlint:parallel
// write isolation applies wherever the annotation appears, while the
// go-statement rule is scoped to internal/netsim and stays silent
// here.
package mac

type slots struct {
	owner []int32
	next  int
}

// assign writes its granted range and one cross-index slot: the
// cross-index write is flagged outside netsim too.
//
//fdlint:parallel
func (s *slots) assign(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.owner[i] = int32(i)
		s.owner[s.next] = 0 // want `index not derived from the shard's own parameters`
	}
}

// background starts a goroutine: allowed outside internal/netsim.
func background(job func()) {
	go job()
}
