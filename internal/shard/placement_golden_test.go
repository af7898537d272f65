package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// placementIDs is the fixed ID set the placement golden tests hash:
// 2,048 auto-assigned IDs ("g1".."g2048") and 2,048 named ones.
func placementIDs() []string {
	ids := make([]string, 0, 4096)
	for i := 1; i <= 2048; i++ {
		ids = append(ids, fmt.Sprintf("g%d", i))
	}
	for i := 0; i < 2048; i++ {
		ids = append(ids, fmt.Sprintf("group-%04d", i))
	}
	return ids
}

// placementDigest hashes the owner of every placementIDs ID.
func placementDigest(t *testing.T, s *Set) string {
	t.Helper()
	h := sha256.New()
	for _, id := range placementIDs() {
		sh, err := s.locate(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s=%d\n", id, sh.id)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlacementGolden pins where the shard ring places a fixed set of
// group IDs for K = 1..8 shards, and for K = 4 with shard 1
// quarantined: the digest of every (id, owner) pair must match the
// values recorded before the ring implementation was shared with the
// cluster tier, so no upgrade re-homes a group.
func TestPlacementGolden(t *testing.T) {
	want := map[int]string{
		1: "a58a9dbf0b0a069d",
		2: "9a84c44648e3339e",
		3: "c85e9fdba60b46c7",
		4: "1a444fe6a15d9772",
		5: "144e3424f9de0603",
		6: "acb06a246f0651df",
		7: "008b88eba6695c6d",
		8: "efc079fd200a961a",
	}
	const wantQuarantined = "2fa1cb0527504df5"
	for k := 1; k <= 8; k++ {
		got := placementDigest(t, newTestSet(t, Config{Shards: k}))
		t.Logf("K=%d: %s", k, got)
		if got != want[k] {
			t.Errorf("K=%d: placement digest %s, want %s", k, got, want[k])
		}
	}
	s := newTestSet(t, Config{Shards: 4})
	if err := s.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	got := placementDigest(t, s)
	t.Logf("K=4 without shard 1: %s", got)
	if got != wantQuarantined {
		t.Errorf("K=4 without shard 1: placement digest %s, want %s", got, wantQuarantined)
	}
}
