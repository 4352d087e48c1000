package netsvc

// SelfTest is the concurrent load harness behind `fdnetd -selftest`
// (and, at reduced scale, the package tests): it boots a real Server
// over HTTP and proves the three service contracts under load —
// deterministic streams (every served stream byte-identical to the
// engine's reference bytes), bounded admission (429s observed, every
// rejected run eventually served on retry), and exact resume (a token
// taken mid-stream replays the remaining rounds byte-for-byte).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/simrand"
)

// SelfTestConfig dimensions a self-test. Zero fields take defaults.
type SelfTestConfig struct {
	// Runs is the number of concurrent scenario runs to drive through
	// the service (default 200; CI drives >= 100).
	Runs int
	// MaxConcurrent is the admission limit of the server under test
	// (default 8) — far below Runs, so rejection is exercised.
	MaxConcurrent int
	// Workers is the engine worker count per run (<= 0: one per CPU),
	// passed to the server under test unchanged.
	Workers int
}

// selfTestSeeds is the number of distinct seeds per scenario.
const selfTestSeeds = 4

func (c *SelfTestConfig) applyDefaults() {
	if c.Runs <= 0 {
		c.Runs = 200
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
}

// selfTestPresets are the scenarios the load phase cycles through:
// small enough to run in milliseconds, diverse enough to cover
// closed-loop, open-loop and multi-reader paths.
var selfTestPresets = []string{"lab-bench", "retail-shelf", "warehouse"}

// holdScenario is the admission-probe scenario: open-loop with a round
// budget so large the stream outlives any socket buffer, so an
// unread-by-design client pins its engine slot until disconnected.
const holdScenario = `{"name": "selftest-hold", "tags": 8, "offered_load": 0.5, "max_rounds": 1000000}`

// SelfTest runs the harness and returns the first contract violation
// (nil means every assertion held). Progress goes to logw.
func SelfTest(cfg SelfTestConfig, logw io.Writer) error {
	cfg.applyDefaults()
	logf := func(format string, args ...any) { fmt.Fprintf(logw, format+"\n", args...) }

	srv := New(Config{
		MaxConcurrent: cfg.MaxConcurrent,
		Workers:       cfg.Workers,
		RetryAfterS:   1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Reference streams: the byte-exact oracle for every (scenario,
	// seed) pair the load phase will request.
	type job struct {
		body []byte
		seed uint64
		key  string
	}
	refs := make(map[string][]byte)
	var jobs []job
	for _, name := range selfTestPresets {
		sc, err := netsim.Preset(name)
		if err != nil {
			return err
		}
		body, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		for s := 0; s < selfTestSeeds; s++ {
			seed := uint64(1 + s)
			var buf bytes.Buffer
			if _, err := srv.ReferenceStream(body, seed, &buf); err != nil {
				return fmt.Errorf("selftest: reference stream %s seed %d: %w", name, seed, err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			refs[key] = buf.Bytes()
			jobs = append(jobs, job{body: body, seed: seed, key: key})
		}
	}
	logf("selftest: %d reference streams computed (%d scenarios x %d seeds)",
		len(refs), len(selfTestPresets), selfTestSeeds)

	// Phase 1 — admission probe: pin every engine slot with held
	// streams, then demand a 429 with Retry-After. Deterministic: with
	// all slots provably occupied, rejection is not a race.
	var rejects429 atomic.Int64
	holdCtx, stopHold := context.WithCancel(context.Background())
	var holds []*http.Response
	for i := 0; i < cfg.MaxConcurrent; i++ {
		req, err := http.NewRequestWithContext(holdCtx, "POST", ts.URL+"/runs?seed=99", strings.NewReader(holdScenario))
		if err != nil {
			stopHold()
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			stopHold()
			return fmt.Errorf("selftest: hold stream %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			stopHold()
			return fmt.Errorf("selftest: hold stream %d admitted with status %d, want 200", i, resp.StatusCode)
		}
		holds = append(holds, resp)
	}
	probe, err := client.Post(ts.URL+"/runs?preset=lab-bench", "application/json", nil)
	if err != nil {
		stopHold()
		return err
	}
	probeBody, _ := io.ReadAll(probe.Body)
	probe.Body.Close()
	if probe.StatusCode != http.StatusTooManyRequests {
		stopHold()
		return fmt.Errorf("selftest: probe beyond the admission limit got status %d (%s), want 429",
			probe.StatusCode, bytes.TrimSpace(probeBody))
	}
	if probe.Header.Get("Retry-After") == "" {
		stopHold()
		return fmt.Errorf("selftest: 429 response missing Retry-After header")
	}
	rejects429.Add(1)
	// The rejected client now behaves like a well-mannered one: jittered
	// exponential backoff seeded from the Retry-After hint, retried until
	// the request is actually served. The held slots are released shortly
	// (while the client sleeps out its first window), so the retry both
	// honors the header and proves reentry succeeds once capacity frees.
	backoff := time.Second
	if ra, err := strconv.Atoi(probe.Header.Get("Retry-After")); err == nil && ra > 0 {
		backoff = time.Duration(ra) * time.Second
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		// Disconnect the held clients; every engine must be torn down
		// and its slot released (the no-leak contract).
		for _, h := range holds {
			h.Body.Close()
		}
		stopHold()
	}()
	jitter := simrand.New(0x5e1f) // fixed seed: the sleep schedule is reproducible
	const maxRetry = 10
	retryAttempts := 0
	for served := false; !served; {
		if retryAttempts >= maxRetry {
			return fmt.Errorf("selftest: 429 retry never served after %d attempts", maxRetry)
		}
		retryAttempts++
		time.Sleep(backoff + time.Duration(jitter.Float64()*0.5*float64(backoff)))
		resp, err := client.Post(ts.URL+"/runs?preset=lab-bench&seed=7", "application/json", nil)
		if err != nil {
			return fmt.Errorf("selftest: 429 retry attempt %d: %w", retryAttempts, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			served = true
		case http.StatusTooManyRequests:
			rejects429.Add(1)
			// Honor a raised hint, then back off exponentially (capped).
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				if hinted := time.Duration(ra) * time.Second; hinted > backoff {
					backoff = hinted
				}
			}
			if backoff *= 2; backoff > 8*time.Second {
				backoff = 8 * time.Second
			}
		default:
			return fmt.Errorf("selftest: 429 retry attempt %d: status %d: %s",
				retryAttempts, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveRuns() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("selftest: %d engines still active 10s after client disconnect", srv.ActiveRuns())
		}
		time.Sleep(2 * time.Millisecond)
	}
	logf("selftest: admission probe ok (429 + Retry-After with %d slots held; served after %d backoff retr%s; slots released on disconnect)",
		cfg.MaxConcurrent, retryAttempts, map[bool]string{true: "y", false: "ies"}[retryAttempts == 1])

	// Phase 2 — concurrent load: Runs simultaneous clients, retrying
	// on 429 until served, each comparing its stream byte-for-byte
	// against the reference.
	var (
		wg        sync.WaitGroup
		retries   atomic.Int64
		firstErr  atomic.Value
		mismatch  atomic.Int64
		completed atomic.Int64
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
	for i := 0; i < cfg.Runs; i++ {
		j := jobs[i%len(jobs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				resp, err := client.Post(
					fmt.Sprintf("%s/runs?seed=%d", ts.URL, j.seed),
					"application/json", bytes.NewReader(j.body))
				if err != nil {
					fail(fmt.Errorf("selftest: %s: %w", j.key, err))
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("selftest: %s: read stream: %w", j.key, err))
					return
				}
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					rejects429.Add(1)
					retries.Add(1)
					if attempt > 100000 {
						fail(fmt.Errorf("selftest: %s: starved after %d retries", j.key, attempt))
						return
					}
					// The header hints 1s; the harness retries faster to
					// keep the test short while still exercising reentry.
					time.Sleep(5 * time.Millisecond)
					continue
				case http.StatusOK:
					if !bytes.Equal(got, refs[j.key]) {
						mismatch.Add(1)
						fail(fmt.Errorf("selftest: %s: served stream differs from reference (%d vs %d bytes)",
							j.key, len(got), len(refs[j.key])))
					}
					completed.Add(1)
					return
				default:
					fail(fmt.Errorf("selftest: %s: status %d: %s", j.key, resp.StatusCode, bytes.TrimSpace(got)))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	if n := completed.Load(); int(n) != cfg.Runs {
		return fmt.Errorf("selftest: only %d of %d runs completed", n, cfg.Runs)
	}
	logf("selftest: load ok — %d concurrent runs served byte-identical under a %d-engine limit (%d 429s, %d retries, 0 mismatches)",
		cfg.Runs, cfg.MaxConcurrent, rejects429.Load(), retries.Load())

	// Phase 3 — resume: take the token mid-stream and prove the
	// resumed stream equals the uninterrupted tail byte-for-byte.
	ref := refs[jobs[0].key]
	lines := bytes.Split(bytes.TrimSuffix(ref, []byte("\n")), []byte("\n"))
	if len(lines) < 3 {
		return fmt.Errorf("selftest: reference stream too short to test resume (%d lines)", len(lines))
	}
	cut := len(lines) / 2
	var mid struct {
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal(lines[cut-1], &mid); err != nil || mid.Resume == "" {
		return fmt.Errorf("selftest: no resume token on stream line %d: %v", cut, err)
	}
	resp, err := client.Post(ts.URL+"/runs?resume="+mid.Resume, "application/json", nil)
	if err != nil {
		return err
	}
	gotTail, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: resume request failed: status %d, %v", resp.StatusCode, err)
	}
	wantTail := append(bytes.Join(lines[cut:], []byte("\n")), '\n')
	if !bytes.Equal(gotTail, wantTail) {
		return fmt.Errorf("selftest: resumed stream differs from the uninterrupted tail (%d vs %d bytes)",
			len(gotTail), len(wantTail))
	}
	logf("selftest: resume ok — token at line %d replays the remaining %d lines byte-identically", cut, len(lines)-cut)

	if rejects429.Load() == 0 {
		return fmt.Errorf("selftest: admission control never engaged (no 429 observed)")
	}
	logf("selftest: PASS (%d runs, %d 429s, streams deterministic, resume exact)", cfg.Runs, rejects429.Load())
	return nil
}
