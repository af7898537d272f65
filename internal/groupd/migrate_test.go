package groupd

import (
	"bytes"
	"testing"
)

// TestInstallEqualGenSeedsOnlyMatchingPlan checks Install's
// higher-generation-wins rule at equal generations: the local copy
// stays, and the incoming warm plan seeds its cache only when both
// copies hold the same group. A diverged copy's plan would route the
// wrong member set.
func TestInstallEqualGenSeedsOnlyMatchingPlan(t *testing.T) {
	src := newTestManager(t, Config{N: 16})
	if _, err := src.Create("x", 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	warm, err := src.Plan("x")
	if err != nil {
		t.Fatal(err)
	}
	g, plan, err := src.ExportGroup("x")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("export carried no warm plan")
	}

	for _, c := range []struct {
		name    string
		members []int
		seeded  bool
	}{
		{"same group", []int{1, 2}, true},
		{"diverged copy", []int{3}, false},
	} {
		dst := newTestManager(t, Config{N: 16})
		if _, err := dst.Create("x", 0, c.members); err != nil {
			t.Fatal(err)
		}
		if err := dst.Install(g, plan); err != nil {
			t.Fatal(err)
		}
		info, err := dst.Get("x")
		if err != nil {
			t.Fatal(err)
		}
		if info.Gen != 1 || len(info.Members) != len(c.members) {
			t.Fatalf("%s: local copy replaced: %+v", c.name, info)
		}
		p, err := dst.Plan("x")
		if err != nil {
			t.Fatal(err)
		}
		if p.Cached != c.seeded {
			t.Fatalf("%s: first plan cached=%v, want %v", c.name, p.Cached, c.seeded)
		}
		if c.seeded && !bytes.Equal(p.Blob, warm.Blob) {
			t.Fatalf("%s: seeded plan differs from the exported one", c.name)
		}
	}
}
