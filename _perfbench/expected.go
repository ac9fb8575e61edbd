package main

import (
	_ "embed"
	"encoding/json"
)

// expected.json holds the committed outputs the benchmark checks: the
// SHA-256 of the Fig. 8 artefact bytes and the decision-log checksums of
// fleet replays. A change that alters any simulated result fails them.
//
//go:embed expected.json
var expectedJSON []byte

type expectations struct {
	// Fig8SHA256 is the digest of `odinsim fig8`'s output bytes.
	Fig8SHA256 string `json:"fig8_sha256"`
	// GoldenReplay is the checksum of the small fixed-seed fleet replay
	// every replay-fleet run checks first.
	GoldenReplay string `json:"golden_replay_checksum"`
	// Replay maps a seed to the checksum of that seed's full replay-fleet
	// trace, for the seeds recorded so far.
	Replay map[string]string `json:"replay_checksums"`
}

var expected = func() expectations {
	var x expectations
	if err := json.Unmarshal(expectedJSON, &x); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return x
}()
