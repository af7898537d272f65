package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/shard"
)

// TestNodePlacementGolden pins where the node ring places a fixed set
// of group IDs on a 3-peer and a 5-peer cluster: the digest of every
// (id, owner) pair must match the values recorded before the ring
// implementation was shared with the shard tier, so a mixed-version
// cluster agrees on every owner.
func TestNodePlacementGolden(t *testing.T) {
	want := map[int]string{3: "1e00eca64c19b1f2", 5: "803c44679f942f96"}
	ids := make([]string, 0, 4096)
	for i := 1; i <= 2048; i++ {
		ids = append(ids, fmt.Sprintf("g%d", i))
	}
	for i := 0; i < 2048; i++ {
		ids = append(ids, fmt.Sprintf("group-%04d", i))
	}
	for _, size := range []int{3, 5} {
		peers := make(map[string]string, size)
		for i := 0; i < size; i++ {
			// Port 1 refuses connections: the membership polls fail, and
			// a down peer keeps its ring share.
			peers[fmt.Sprintf("node-%d", i)] = "http://127.0.0.1:1"
		}
		set, err := shard.New(shard.Config{Group: groupd.Config{N: 16}})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Self: "node-0", Peers: peers, Local: set, Handler: http.NotFoundHandler()})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, id := range ids {
			fmt.Fprintf(h, "%s=%s\n", id, n.Owner(id))
		}
		n.Close()
		set.Close()
		got := hex.EncodeToString(h.Sum(nil))[:16]
		t.Logf("%d peers: %s", size, got)
		if got != want[size] {
			t.Errorf("%d peers: placement digest %s, want %s", size, got, want[size])
		}
	}
}
