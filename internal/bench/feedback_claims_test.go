package bench

import (
	"math"
	"strconv"
	"testing"
)

// berAt parses a BER cell of a formatted row.
func berAt(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("bad BER cell %q in row %v: %v", row[col], row, err)
	}
	return v
}

// notAbove reports whether BER lo ≤ hi holds up to Monte-Carlo noise:
// a reversal counts only beyond three standard deviations of the
// difference of two binomial proportions over n bits each, at their
// pooled rate.
func notAbove(lo, hi float64, n int) bool {
	p := (lo + hi) / 2
	return lo-hi <= 3*math.Sqrt(p*(1-p)*2/float64(n))
}

// The feedback experiments' paper claims, checked by meaning rather than
// bytes in quick mode at five seeds:
//   - fig1: BER does not fall with distance at any feedback rate, and at
//     each distance 1 kbps ≤ 10 kbps ≤ 100 kbps (longer averaging
//     never hurts);
//   - fig2: BER does not rise with the reflection coefficient rho.
func TestFeedbackExperimentClaims(t *testing.T) {
	fig1, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := RunConfig{Seed: seed, Quick: true, Workers: 2}
		n := cfg.trials(20000)

		// fig1 rows: dist_m, rate_kbps, ber, ber_analytic.
		byRate := map[string][][]string{}
		var rates []string
		for _, row := range fig1.Run(cfg).Table.Rows() {
			if _, ok := byRate[row[1]]; !ok {
				rates = append(rates, row[1])
			}
			byRate[row[1]] = append(byRate[row[1]], row)
		}
		if len(rates) != 3 {
			t.Fatalf("seed %d: fig1 has rates %v, want three", seed, rates)
		}
		for _, rate := range rates {
			rows := byRate[rate]
			for k := 1; k < len(rows); k++ {
				if near, far := berAt(t, rows[k-1], 2), berAt(t, rows[k], 2); !notAbove(near, far, n) {
					t.Errorf("seed %d fig1 %s kbps: BER falls from %g at %s m to %g at %s m",
						seed, rate, near, rows[k-1][0], far, rows[k][0])
				}
			}
		}
		// rates arrive fastest first (100, 10, 1 kbps).
		for k := range byRate[rates[0]] {
			for r := 1; r < len(rates); r++ {
				fast, slow := byRate[rates[r-1]][k], byRate[rates[r]][k]
				if !notAbove(berAt(t, slow, 2), berAt(t, fast, 2), n) {
					t.Errorf("seed %d fig1 at %s m: %s kbps BER %s above %s kbps BER %s",
						seed, slow[0], slow[1], slow[2], fast[1], fast[2])
				}
			}
		}

		// fig2 rows: rho, ber, ber_analytic, rho ascending.
		rows := fig2.Run(cfg).Table.Rows()
		for k := 1; k < len(rows); k++ {
			if weak, strong := berAt(t, rows[k-1], 1), berAt(t, rows[k], 1); !notAbove(strong, weak, n) {
				t.Errorf("seed %d fig2: BER rises from %g at rho %s to %g at rho %s",
					seed, weak, rows[k-1][0], strong, rows[k][0])
			}
		}
	}
}
