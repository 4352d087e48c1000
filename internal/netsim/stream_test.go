package netsim

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// collectStream runs RunStreamOptions and returns the marshaled bytes
// of every emitted snapshot (the service-layer view of the stream) plus
// the final result.
func collectStream(t *testing.T, sc Scenario, seed uint64, opts StreamOptions) ([][]byte, *NetResult) {
	t.Helper()
	var lines [][]byte
	res, err := RunStreamOptions(context.Background(), sc, seed, opts, func(s *RoundSnapshot) error {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		lines = append(lines, b)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStreamOptions: %v", err)
	}
	return lines, res
}

// TestRunStreamMatchesBatch: the streamed run's final NetResult is
// identical to the batch engine's, and the last snapshot's cumulative
// counters agree with it.
func TestRunStreamMatchesBatch(t *testing.T) {
	for _, name := range []string{"warehouse", "mall-cells", "fading-aisle"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		lines, streamed := collectStream(t, sc, 7, StreamOptions{Workers: 1})
		batch, err := Run(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, batch) {
			t.Errorf("%s: streamed NetResult differs from batch Run", name)
		}
		if len(lines) != batch.Rounds {
			t.Fatalf("%s: %d snapshots for %d rounds", name, len(lines), batch.Rounds)
		}
		var last RoundSnapshot
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatal(err)
		}
		if last.Round != batch.Rounds {
			t.Errorf("%s: last snapshot round %d, want %d", name, last.Round, batch.Rounds)
		}
		if last.FramesDelivered != batch.FramesDelivered ||
			last.FramesOffered != batch.FramesOffered ||
			last.ElapsedBytes != batch.ElapsedBytes ||
			last.GoodputBytes != batch.GoodputBytes {
			t.Errorf("%s: last snapshot counters disagree with batch result:\n%+v\nvs delivered=%d offered=%d elapsed=%d goodput=%d",
				name, last, batch.FramesDelivered, batch.FramesOffered, batch.ElapsedBytes, batch.GoodputBytes)
		}
		// The per-round deltas must sum to the cumulative totals.
		var sum int64
		for _, l := range lines {
			var s RoundSnapshot
			if err := json.Unmarshal(l, &s); err != nil {
				t.Fatal(err)
			}
			sum += s.DeliveredDelta
		}
		if sum != batch.FramesDelivered {
			t.Errorf("%s: delivered deltas sum to %d, want %d", name, sum, batch.FramesDelivered)
		}
	}
}

// streamShardCases are the inputs that exercise the observation
// partials across shard boundaries: the million preset scaled to three
// full tag shards plus a ragged one (so cross-shard merges and a
// partial last shard both run), its TDM variant (the one schedule that
// builds the gains matrix), and a preset with faults and congestion
// control (churn flushes, outaged readers, retx-parked backlog).
func streamShardCases(t *testing.T) []Scenario {
	t.Helper()
	million, err := Preset("million")
	if err != nil {
		t.Fatal(err)
	}
	million.Tags = 3*tagShardLen + 17
	tdm := million
	tdm.Name = "million-tdm"
	tdm.Readers.Scheduling = SchedulingTDM
	outage, err := Preset("outage-retail")
	if err != nil {
		t.Fatal(err)
	}
	return []Scenario{million, tdm, outage}
}

// TestRunStreamWorkerCountIdentical: the emitted snapshot bytes are
// identical at any worker count — the streaming face of the engine's
// sharding contract.
func TestRunStreamWorkerCountIdentical(t *testing.T) {
	aisle, err := Preset("fading-aisle")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range append(streamShardCases(t), aisle) {
		t.Run(sc.Name, func(t *testing.T) {
			one, _ := collectStream(t, sc, 3, StreamOptions{Workers: 1})
			for _, workers := range []int{2, 8} {
				many, _ := collectStream(t, sc, 3, StreamOptions{Workers: workers})
				if len(one) != len(many) {
					t.Fatalf("snapshot count differs: %d at 1 worker, %d at %d", len(one), len(many), workers)
				}
				for i := range one {
					if string(one[i]) != string(many[i]) {
						t.Fatalf("round %d snapshot differs between 1 and %d workers:\n%s\n%s", i+1, workers, one[i], many[i])
					}
				}
			}
		})
	}
}

// streamRecount is the reference the snapshot counters are checked
// against: a direct walk over every tag's live state.
type streamRecount struct {
	offered, delivered, dropped int64
	alive                       int
	qdepth                      []int64
	rate                        []int64 // cumulative per-rate chunks
}

func recountTags(e *engine) streamRecount {
	st := &e.tags
	rc := streamRecount{qdepth: make([]int64, len(e.readers))}
	for i := range st.stats {
		ts := &st.stats[i]
		rc.offered += int64(ts.FramesOffered)
		rc.delivered += int64(ts.FramesDelivered)
		rc.dropped += int64(ts.FramesDropped)
		if st.alive[i] {
			rc.alive++
		}
		q := int64(st.queue[i])
		if e.cong != nil {
			q += int64(e.cong.retxQ[i])
		}
		rc.qdepth[st.reader[i]] += q
	}
	if f := e.fade; f != nil {
		nr := f.nr
		rc.rate = make([]int64, nr)
		for i, c := range f.rateChunks {
			rc.rate[i%nr] += c
		}
	}
	return rc
}

// tee chains test observers: each sees every round, in order.
type tee []observer

func (o tee) init(e *engine) {
	for _, x := range o {
		x.init(e)
	}
}

func (o tee) observe(e *engine, round int) error {
	for _, x := range o {
		if err := x.observe(e, round); err != nil {
			return err
		}
	}
	return nil
}

// TestRunStreamSnapshotsMatchRecount: every round's snapshot totals —
// frame counters, live tags, per-reader backlog and the cumulative
// rate histogram — equal a direct per-tag recount of the settled
// state, at every worker count. The engine assembles them from
// per-shard, per-worker and per-reader partials; the recount is the
// serial walk those partials replaced.
func TestRunStreamSnapshotsMatchRecount(t *testing.T) {
	// Beyond the shard cases: deadline drops (a tight deadline behind a
	// narrow window), arrival overflow, and the analytic engine's rate
	// accounting.
	dock, err := Preset("congested-dock")
	if err != nil {
		t.Fatal(err)
	}
	dock.Readers.Policy = PolicyDeadline
	dock.Readers.DeadlineRounds = 2
	dock.ContentionWindow = 4
	flood, err := Preset("warehouse")
	if err != nil {
		t.Fatal(err)
	}
	flood.OfferedLoad = 2
	cases := streamShardCases(t)
	analytic := cases[0]
	analytic.Analytic = true
	for _, sc := range append(cases, dock, flood, analytic) {
		for _, workers := range []int{1, 2, 8} {
			// The probe recounts the settled columns just before the
			// streamer snapshots the same round; the sink compares.
			var want streamRecount
			recount := probe(func(e *engine, round int) { want = recountTags(e) })
			var rate []int64
			rounds := 0
			sink := func(s *RoundSnapshot) error {
				rounds++
				if s.FramesOffered != want.offered || s.FramesDelivered != want.delivered ||
					s.FramesDropped != want.dropped || s.AliveTags != want.alive {
					return fmt.Errorf("round %d: snapshot offered/delivered/dropped/alive %d/%d/%d/%d, recount %d/%d/%d/%d",
						s.Round, s.FramesOffered, s.FramesDelivered, s.FramesDropped, s.AliveTags,
						want.offered, want.delivered, want.dropped, want.alive)
				}
				for r, rr := range s.Readers {
					if rr.QueueDepth != want.qdepth[r] {
						return fmt.Errorf("round %d reader %d: queue depth %d, recount %d", s.Round, r, rr.QueueDepth, want.qdepth[r])
					}
				}
				if len(s.RateChunksDelta) != len(want.rate) {
					return fmt.Errorf("round %d: %d rate deltas, recount has %d rates", s.Round, len(s.RateChunksDelta), len(want.rate))
				}
				if rate == nil {
					rate = make([]int64, len(want.rate))
				}
				for k, d := range s.RateChunksDelta {
					rate[k] += d
					if rate[k] != want.rate[k] {
						return fmt.Errorf("round %d rate %d: deltas sum to %d, recount %d", s.Round, k, rate[k], want.rate[k])
					}
				}
				return nil
			}
			res, err := run(context.Background(), sc, 3, workers, tee{recount, &streamer{sink: sink}})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", sc.Name, workers, err)
			}
			if rounds != res.Rounds || rounds == 0 {
				t.Fatalf("%s at %d workers: %d snapshots for %d rounds", sc.Name, workers, rounds, res.Rounds)
			}
		}
	}
}

// TestRunStreamFinalStateMatchesResult: the last snapshot's gauges —
// per-reader backlog and live tags — equal the final result's, at
// every worker count. The snapshot takes them from the settle tally and
// the result from the drain phase, which reuses that tally.
func TestRunStreamFinalStateMatchesResult(t *testing.T) {
	var cases []Scenario
	for _, name := range []string{"congested-dock", "outage-retail", "warehouse", "million"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "million" {
			sc.Tags = 3*tagShardLen + 17
		}
		cases = append(cases, sc)
	}
	for _, sc := range cases {
		for _, workers := range []int{1, 2, 8} {
			var qdepth []int64
			alive := 0
			res, err := RunStreamOptions(context.Background(), sc, 3, StreamOptions{Workers: workers}, func(s *RoundSnapshot) error {
				qdepth = qdepth[:0]
				for _, rr := range s.Readers {
					qdepth = append(qdepth, rr.QueueDepth)
				}
				alive = s.AliveTags
				return nil
			})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", sc.Name, workers, err)
			}
			if len(qdepth) != len(res.Readers) {
				t.Fatalf("%s at %d workers: last snapshot has %d readers, result %d", sc.Name, workers, len(qdepth), len(res.Readers))
			}
			for r, rs := range res.Readers {
				if qdepth[r] != rs.QueueDepth {
					t.Errorf("%s at %d workers reader %d: last snapshot queue depth %d, result %d", sc.Name, workers, r, qdepth[r], rs.QueueDepth)
				}
			}
			live := 0
			for _, ts := range res.Tags {
				if ts.Alive {
					live++
				}
			}
			if alive != live {
				t.Errorf("%s at %d workers: last snapshot has %d live tags, result %d", sc.Name, workers, alive, live)
			}
		}
	}
}

// TestRunStreamResumeMatchesTail: resuming at round k emits exactly the
// uninterrupted stream's suffix, byte for byte, and the same final
// result — the replay-based resume contract.
func TestRunStreamResumeMatchesTail(t *testing.T) {
	sc, err := Preset("warehouse")
	if err != nil {
		t.Fatal(err)
	}
	full, fullRes := collectStream(t, sc, 5, StreamOptions{Workers: 2})
	if len(full) < 4 {
		t.Fatalf("warehouse run too short for a resume test: %d rounds", len(full))
	}
	start := len(full)/2 + 1 // 1-based round of the first resumed snapshot
	tail, tailRes := collectStream(t, sc, 5, StreamOptions{Workers: 2, StartRound: start})
	if want := full[start-1:]; len(tail) != len(want) {
		t.Fatalf("resumed stream has %d snapshots, want %d", len(tail), len(want))
	} else {
		for i := range want {
			if string(tail[i]) != string(want[i]) {
				t.Fatalf("resumed snapshot %d differs from uninterrupted tail:\n%s\n%s", i, tail[i], want[i])
			}
		}
	}
	if !reflect.DeepEqual(tailRes, fullRes) {
		t.Error("resumed run's final NetResult differs from the uninterrupted run's")
	}
	// Resuming past the end yields no snapshots but the same result.
	none, noneRes := collectStream(t, sc, 5, StreamOptions{Workers: 1, StartRound: fullRes.Rounds + 1})
	if len(none) != 0 {
		t.Errorf("resume past the end emitted %d snapshots, want 0", len(none))
	}
	if !reflect.DeepEqual(noneRes, fullRes) {
		t.Error("past-the-end resume result differs")
	}
}

// TestRunStreamCancel: cancelling the context between rounds aborts the
// run with the context's error and no further snapshots.
func TestRunStreamCancel(t *testing.T) {
	sc, err := Preset("retail-shelf") // open-loop: runs to MaxRounds
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res, err := RunStream(ctx, sc, 1, func(s *RoundSnapshot) error {
		rounds++
		if rounds == 3 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("cancelled stream returned (%v, %v), want context.Canceled", res, err)
	}
	if rounds != 3 {
		t.Errorf("sink saw %d rounds after cancellation at 3", rounds)
	}
}

// TestRunStreamSinkErrorAborts: a sink error (the service's client hung
// up mid-write) aborts the run and surfaces unchanged.
func TestRunStreamSinkErrorAborts(t *testing.T) {
	sc, err := Preset("lab-bench")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := context.DeadlineExceeded
	_, err = RunStream(context.Background(), sc, 1, func(s *RoundSnapshot) error {
		if s.Round == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("sink error surfaced as %v, want %v", err, sentinel)
	}
}

// TestRunStreamHotspotCounters: per-reader deltas are consistent — they
// sum to the cumulative reader stats, and saturation stays in [0, 1].
func TestRunStreamHotspotCounters(t *testing.T) {
	sc, err := Preset("mall-cells")
	if err != nil {
		t.Fatal(err)
	}
	var singles, collisions []int64
	var delivered []int
	res, err := RunStream(context.Background(), sc, 2, func(s *RoundSnapshot) error {
		if len(singles) == 0 {
			singles = make([]int64, len(s.Readers))
			collisions = make([]int64, len(s.Readers))
			delivered = make([]int, len(s.Readers))
		}
		for i, rr := range s.Readers {
			if rr.Saturation < 0 || rr.Saturation > 1 {
				return context.DeadlineExceeded
			}
			singles[i] += rr.SingletonDelta
			collisions[i] += rr.CollisionDelta
			delivered[i] += rr.DeliveredDelta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Readers {
		if singles[i] != r.SingletonSlots || collisions[i] != r.CollisionSlots || delivered[i] != r.FramesDelivered {
			t.Errorf("reader %d: streamed deltas sum to %d/%d/%d, final stats %d/%d/%d",
				i, singles[i], collisions[i], delivered[i], r.SingletonSlots, r.CollisionSlots, r.FramesDelivered)
		}
	}
}
