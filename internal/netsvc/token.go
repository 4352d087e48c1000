package netsvc

// Resume tokens. The engine's state after k rounds is a pure function
// of (Scenario, seed, k) — including every inline per-tag RNG column —
// so the token serializes exactly that triple and nothing else: the
// client's pre-defaults scenario declaration, the run seed, and the
// round cursor. The server is stateless across resumes (a token minted
// by one process replays on another), and the replayed stream's bytes
// match the uninterrupted stream's tail by the purity contract.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/netsim"
)

// resumeTokenVersion guards the token schema; bump when the wire shape
// of resumeToken or the stream changes incompatibly.
const resumeTokenVersion = 1

// resumeToken is the wire form of a resume cursor.
type resumeToken struct {
	V int `json:"v"`
	// Scenario is the client's declaration BEFORE defaults: embedding
	// the pre-defaults form lets the replay walk the exact same
	// ApplyDefaults path (defaults are not idempotent — an explicit-zero
	// sentinel like ReqSNRZero resolves to a literal 0 that re-applying
	// defaults would turn back into the default).
	Scenario netsim.Scenario `json:"scenario"`
	Seed     uint64          `json:"seed"`
	// Round is the 1-based round the resumed stream emits first.
	Round int `json:"round"`
}

// encodeResumeToken renders a token as URL-safe base64 JSON.
func encodeResumeToken(t resumeToken) string {
	b, err := json.Marshal(t)
	if err != nil {
		// A Scenario is plain data; marshaling cannot fail.
		panic(fmt.Sprintf("netsvc: marshal resume token: %v", err))
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeResumeToken parses and version-checks a client token.
func decodeResumeToken(s string) (resumeToken, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return resumeToken{}, fmt.Errorf("not base64url: %w", err)
	}
	// The scenario is decoded apart, through ParseScenario, so a token
	// rejects the same unknown fields a POSTed body does.
	var w struct {
		V        int             `json:"v"`
		Scenario json.RawMessage `json:"scenario"`
		Seed     uint64          `json:"seed"`
		Round    int             `json:"round"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return resumeToken{}, fmt.Errorf("not a token: %w", err)
	}
	if w.V != resumeTokenVersion {
		return resumeToken{}, fmt.Errorf("token version %d, this server speaks %d", w.V, resumeTokenVersion)
	}
	if w.Round < 1 {
		return resumeToken{}, fmt.Errorf("token round %d out of range", w.Round)
	}
	sc, err := netsim.ParseScenario(w.Scenario)
	if err != nil {
		return resumeToken{}, fmt.Errorf("token scenario: %w", err)
	}
	return resumeToken{V: w.V, Scenario: sc, Seed: w.Seed, Round: w.Round}, nil
}
