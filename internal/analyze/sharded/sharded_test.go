package sharded_test

import (
	"testing"

	"repro/internal/analyze/analysistest"
	"repro/internal/analyze/sharded"
)

// The corpus proves the analyzer confines goroutine creation to the
// //fdlint:workerpool function, requires parameter-rooted simrand
// sources (with alias tracking) and channel-free bodies in
// //fdlint:parallel functions, and keeps //fdlint:serial streams out
// of struct fields and parallel calls.
func TestSharded(t *testing.T) {
	analysistest.Run(t, "testdata", sharded.Analyzer, "shardtest/internal/netsim")
}

// The write corpus proves the analyzer accepts range-parameter indices
// (directly, through arithmetic and partition-column indirection,
// and through element-pointer narrowing), exempts worker scratch and
// shard-owned sub-ranges, flags cross-index and whole-column writes,
// and honours only reasoned shard-ok suppressions — inside netsim and,
// with the go-statement rule off, outside it.
func TestShardwrite(t *testing.T) {
	analysistest.Run(t, "testdata", sharded.Analyzer, "shardwtest/internal/netsim")
	analysistest.Run(t, "testdata", sharded.Analyzer, "shardwtest/internal/mac")
}

func TestGoverns(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/netsim":     true,
		"shardtest/internal/netsim": true,
		"internal/netsim":           true,
		"repro/internal/netsvc":     false,
		"repro/internal/mac":        false,
	} {
		if got := sharded.Governs(path); got != want {
			t.Errorf("Governs(%q) = %v, want %v", path, got, want)
		}
	}
}
