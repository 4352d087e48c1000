package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/netsvc"
	"repro/internal/simrand"
)

// fdnetdStream drives an in-process fdnetd server over loopback HTTP as
// an open loop: requests fall due at Poisson arrival times and go out on
// at most streamConns connections; a request due while both are busy
// waits, and its latency still counts from its due time.
type fdnetdStream struct {
	seed    uint64
	srv     *netsvc.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	entries []*streamEntry

	// The last drive, for the per-layer metrics.
	reqs        []streamReq
	recs        []reqRecord
	maxInFlight int64
}

// streamRate is the arrival rate in requests per second: an eighth of
// the closed-loop capacity with streamConns connections when the
// benchmark was defined (580 req/s on a 2-vCPU Intel Xeon VM). The open
// loop turns any loss of CPU into queueing: at half the capacity the
// latency medians of five seeds spread 29% and the tails 190%, and at a
// quarter a concurrent compile tripled the median and multiplied the
// tail by eight.
const (
	streamRate       = 72.0
	streamConns      = 2
	seedsPerScenario = 16
	resumeEvery      = 8
)

// streamPresets are the built-in scenarios in the request mix, beside
// the example scenario files.
var streamPresets = []string{"lab-bench", "retail-shelf", "warehouse", "mall-cells",
	"fading-aisle", "mobile-fleet", "congested-dock", "outage-retail"}

// streamEntry is one (scenario, seed) of the request pool with its
// reference stream.
type streamEntry struct {
	body []byte
	seed uint64
	// SHA-256 of the whole reference stream, so that the benchmark's own
	// heap does not hold every stream of the pool.
	ref       [sha256.Size]byte
	size      int
	lines     int
	tagRounds float64
	// The resume request: the token of the middle round line, the digest
	// of the reference after that line, and the round it emits first.
	token      string
	tail       [sha256.Size]byte
	startRound int
}

type streamReq struct {
	entry  int
	resume bool
	due    time.Duration // from the start of the schedule
}

type reqRecord struct {
	ttfb, total, late float64 // ms
	failed, rejected  bool
}

func scenarioBodies() ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) != 4 {
		return nil, fmt.Errorf("found %d example scenarios, want 4 (run from the repository root)", len(files))
	}
	var bodies [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	for _, name := range streamPresets {
		sc, err := netsim.Preset(name)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

func (w *fdnetdStream) setUp(seed uint64) error {
	w.seed = seed
	bodies, err := scenarioBodies()
	if err != nil {
		return err
	}
	w.srv = netsvc.New(netsvc.Config{Workers: 1})
	src := simrand.New(deriveSeed(seed, wStream+"/pool"))
	for _, body := range bodies {
		for k := 0; k < seedsPerScenario; k++ {
			e := &streamEntry{body: body, seed: src.Uint64()}
			if err := e.reference(w.srv); err != nil {
				return err
			}
			w.entries = append(w.entries, e)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: streamConns, MaxIdleConnsPerHost: streamConns, DisableCompression: true,
	}}

	// Warm up: every entry and its resume once, back to back.
	var warm []streamReq
	for i := range w.entries {
		warm = append(warm, streamReq{entry: i}, streamReq{entry: i, resume: true})
	}
	if res := w.drive(warm, nil); res.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", res.failed, res.attempted)
	}
	return nil
}

// reference renders the entry's stream without HTTP and picks its
// resume point.
func (e *streamEntry) reference(srv *netsvc.Server) error {
	var b bytes.Buffer
	nr, err := srv.ReferenceStream(e.body, e.seed, &b)
	if err != nil {
		return err
	}
	e.ref, e.size = sha256.Sum256(b.Bytes()), b.Len()
	e.tagRounds = float64(len(nr.Tags) * nr.Rounds)
	lines := bytes.SplitAfter(b.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // after the final newline
	e.lines = len(lines)
	if e.lines < 3 {
		return fmt.Errorf("reference stream has %d lines, too few to resume", e.lines)
	}
	mid := (e.lines - 1) / 2 // the middle round line; the last line is the result
	var round struct {
		Round  int    `json:"round"`
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal(lines[mid], &round); err != nil {
		return fmt.Errorf("reference round line: %w", err)
	}
	e.token, e.startRound = round.Resume, round.Round+1
	e.tail = sha256.Sum256(bytes.Join(lines[mid+1:], nil))
	return nil
}

// schedule draws Poisson arrivals at streamRate until d has passed and
// at least minOps are due. The mix is fixed: requests visit the scenarios
// in turn, each scenario's seeds in turn, and every resumeEvery-th visit
// of a scenario is a resume, so only the pool's seeds and the arrival
// times depend on the workload seed. A random mix made the tail
// latencies of one seed differ from the next by the luck of the draw.
func (w *fdnetdStream) schedule(d time.Duration, minOps int) []streamReq {
	src := simrand.New(deriveSeed(w.seed, wStream+"/arrivals"))
	scenarios := len(w.entries) / seedsPerScenario
	var reqs []streamReq
	var t time.Duration
	for i := 0; ; i++ {
		t += time.Duration(src.Exp(1/streamRate) * float64(time.Second))
		if t >= d && i >= minOps {
			return reqs
		}
		visit := i / scenarios
		reqs = append(reqs, streamReq{
			entry:  i%scenarios*seedsPerScenario + visit%seedsPerScenario,
			resume: visit%resumeEvery == resumeEvery-1,
			due:    t,
		})
	}
}

func (w *fdnetdStream) measure(d time.Duration, minOps int, tr *tracer) *result {
	res := w.drive(w.schedule(d, minOps), tr)
	if tr != nil {
		w.decompose(tr)
	}
	return res
}

// drive sends reqs on streamConns connections and checks every body.
func (w *fdnetdStream) drive(reqs []streamReq, tr *tracer) *result {
	w.reqs, w.recs = reqs, make([]reqRecord, len(reqs))
	var next, inFlight, maxInFlight atomic.Int64
	heap := startHeapSampler()
	stopTick, tickDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				heap.mark()
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(streamConns)
	for c := 0; c < streamConns; c++ {
		go func() {
			defer wg.Done()
			h, chunk := sha256.New(), make([]byte, 32<<10)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				free := time.Now()
				due := start.Add(reqs[i].due)
				time.Sleep(time.Until(due))
				cur := inFlight.Add(1)
				for m := maxInFlight.Load(); cur > m && !maxInFlight.CompareAndSwap(m, cur); m = maxInFlight.Load() {
				}
				w.recs[i] = w.do(reqs[i], due, free, tr, int64(i), h, chunk)
				inFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	close(stopTick)
	<-tickDone

	res := &result{unit: "requests", elapsed: time.Since(start)}
	for _, r := range w.recs {
		res.attempted++
		if r.failed {
			res.failed++
			continue
		}
		res.op = append(res.op, r.total)
		res.first = append(res.first, r.ttfb)
	}
	heap.mark()
	res.heap = heap.close()
	w.maxInFlight = maxInFlight.Load()
	return res
}

// do sends one request and hashes its stream with h, reading through
// chunk, and times the first complete line and the last byte from the
// request's due time.
func (w *fdnetdStream) do(q streamReq, due, free time.Time, tr *tracer, id int64, h hash.Hash, chunk []byte) (rec reqRecord) {
	send := time.Now()
	rec.late = ms(send.Sub(later(due, free)))
	rid := tr.beginAt("request", 0, id, due)
	tr.endAt(tr.beginAt("loadgen.queue_wait", rid, id, due), send)
	xid := tr.beginAt("netsvc.http_exchange", rid, id, send)
	defer func() {
		end := time.Now()
		tr.endAt(xid, end)
		tr.endAt(rid, end)
	}()

	e := w.entries[q.entry]
	url, body, want := w.url+"/runs?seed="+strconv.FormatUint(e.seed, 10), e.body, e.ref
	if q.resume {
		url, body, want = w.url+"/runs?resume="+e.token, nil, e.tail
	}
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.failed = true
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		rec.failed, rec.rejected = true, resp.StatusCode == http.StatusTooManyRequests
		return rec
	}
	h.Reset()
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			if rec.ttfb == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				rec.ttfb = ms(time.Since(due))
			}
			h.Write(chunk[:n])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			rec.failed = true
			return rec
		}
	}
	rec.total = ms(time.Since(due))
	var sum [sha256.Size]byte
	rec.failed = !bytes.Equal(h.Sum(sum[:0]), want[:])
	return rec
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// decompose times, for every entry of the pool, the layers a request
// passes through when called directly: body parsing and validation, the
// engine with a no-op sink, and the engine with NDJSON encoding
// (ReferenceStream). Their spans carry the negative request id -(entry+1).
func (w *fdnetdStream) decompose(tr *tracer) {
	for i, e := range w.entries {
		id := -int64(i + 1)
		did := tr.begin("decompose", 0, id)
		pid := tr.begin("netsim.parse_validate", did, id)
		sc, err := netsim.ParseScenario(e.body)
		if err == nil {
			sc.ApplyDefaults()
			err = sc.Validate()
		}
		tr.end(pid)
		if err != nil {
			continue
		}
		rid := tr.begin("netsim.RunStreamOptions", did, id)
		_, _ = netsim.RunStreamOptions(context.Background(), sc, e.seed, netsim.StreamOptions{Workers: 1},
			func(*netsim.RoundSnapshot) error { return nil }) // set up without error by reference
		tr.end(rid)
		eid := tr.begin("netsvc.ReferenceStream", did, id)
		_, _ = w.srv.ReferenceStream(e.body, e.seed, io.Discard) // made without error in set-up
		tr.end(eid)
		tr.end(did)
	}
}

func (w *fdnetdStream) layers(res *result, spans []span) map[string]float64 {
	entryMs := func(name string) map[int]float64 {
		out := map[int]float64{}
		for _, s := range named(spans, name) {
			out[int(-s.Req-1)] = s.durMs()
		}
		return out
	}
	run, ref := entryMs("netsim.RunStreamOptions"), entryMs("netsvc.ReferenceStream")
	var runSum, refSum, tagRounds, lines, bytesOut float64
	for i, e := range w.entries {
		runSum += run[i]
		refSum += ref[i]
		tagRounds += e.tagRounds
		lines += float64(e.lines)
		bytesOut += float64(e.size)
	}
	var parse []float64
	for _, s := range named(spans, "netsim.parse_validate") {
		parse = append(parse, s.durMs()*1e3)
	}

	var overhead, late []float64
	replayed, resumes, rejected := 0, 0, 0
	exchange := map[int64]float64{}
	for _, s := range named(spans, "netsvc.http_exchange") {
		exchange[s.Req] = s.durMs()
	}
	for i, q := range w.reqs {
		r := w.recs[i]
		late = append(late, r.late)
		if r.rejected {
			rejected++
		}
		if q.resume {
			resumes++
			replayed += w.entries[q.entry].startRound - 1
		} else if !r.failed {
			overhead = append(overhead, exchange[int64(i)]-ref[q.entry])
		}
	}
	return map[string]float64{
		"netsim.ns_per_tag_round":         runSum / tagRounds * 1e6,
		"netsim.replay_rounds_per_resume": float64(replayed) / float64(max(resumes, 1)),
		"netsim.parse_validate_us":        median(parse),
		"netsvc.encode_ns_per_line":       (refSum - runSum) / lines * 1e6,
		"netsvc.bytes_per_line":           bytesOut / lines,
		"netsvc.http_overhead_ms":         median(overhead),
		"netsvc.rejected":                 float64(rejected),
		"loadgen.late_p99_ms":             quantile(late, 0.99),
		"loadgen.in_flight_max":           float64(w.maxInFlight),
	}
}

func (w *fdnetdStream) close() {
	if w.hs != nil {
		_ = w.hs.Close() // closes the listener and every connection
		<-w.served
		w.client.CloseIdleConnections()
	}
}
