package faultd

import (
	"testing"

	"brsmn/internal/netsim"
	"brsmn/internal/swbox"
	"brsmn/internal/workload"
)

// TestInjectorTampersPipeline ties the injector to the wave-pipelined
// simulator: a clean pipeline misdelivers nothing; with a stuck switch
// armed, some wave must misdeliver.
func TestInjectorTampersPipeline(t *testing.T) {
	const n = 16
	probes, err := workload.Probes(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	rep, err := netsim.PipelineTampered(probes, 1, inj)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misdelivered != 0 {
		t.Fatalf("fault-free pipeline misdelivered %d outputs", rep.Misdelivered)
	}
	total := 0
	for _, s := range []swbox.Setting{swbox.Parallel, swbox.Cross} {
		inj.Clear()
		inj.Add(Fault{Kind: StuckAt, Col: 3, Switch: 1, Stuck: s})
		rep, err = netsim.PipelineTampered(probes, 1, inj)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.Misdelivered
	}
	if total == 0 {
		t.Fatal("neither stuck value of (col 3, switch 1) misdelivered any pipelined wave")
	}
}
