package main

import (
	"strings"
	"testing"
)

// TestRunFig2 drives the command body on the paper's example.
func TestRunFig2(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 8, true, "", false, 0, 1, -1, false, true, false, "", false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"α1αε011", "output 7: from input 2", "final column"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestRunAssignSyntax checks the -assign parser end to end.
func TestRunAssignSyntax(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 8, false, "0,1;;3,4,7;2;;;;5,6", false, 0, 1, -1, false, false, true, "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "output 4: from input 2") {
		t.Errorf("assign route wrong:\n%s", b.String())
	}
	// Verbose mode renders plans.
	if !strings.Contains(b.String(), "scatter plan") {
		t.Errorf("verbose plans missing:\n%s", b.String())
	}
}

// TestRunFeedbackAndBroadcast covers the feedback path.
func TestRunFeedbackAndBroadcast(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 8, false, "", false, 0, 1, 3, true, false, true, "", false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Feedback BRSMN: 5 passes") {
		t.Errorf("feedback header missing:\n%s", out)
	}
	if !strings.Contains(out, "pass 5:") {
		t.Errorf("verbose passes missing:\n%s", out)
	}
	for o := 0; o < 8; o++ {
		if !strings.Contains(out, "from input 3") {
			t.Errorf("broadcast delivery missing:\n%s", out)
			break
		}
	}
}

// TestRunTrees covers the Fig. 9 tree rendering flag.
func TestRunTrees(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 8, true, "", false, 0, 1, -1, false, false, false, "", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tag tree (Fig. 9)") || !strings.Contains(b.String(), "L1") {
		t.Errorf("tree rendering missing:\n%s", b.String())
	}
}

// TestRunRandom covers the random generator path.
func TestRunRandom(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 16, false, "", true, 0.8, 7, -1, false, false, false, "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "assignment:") {
		t.Errorf("random route output wrong:\n%s", b.String())
	}
}

// TestRunErrors covers the argument guards.
func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 8, false, "", false, 0, 1, -1, false, false, false, "", false); err == nil {
		t.Error("no mode selected: want error")
	}
	if err := run(&b, 8, false, "0;1;2;3;4;5;6;7;8", false, 0, 1, -1, false, false, false, "", false); err == nil {
		t.Error("too many sets: want error")
	}
	if err := run(&b, 8, false, "x", false, 0, 1, -1, false, false, false, "", false); err == nil {
		t.Error("bad destination: want error")
	}
	if err := run(&b, 8, false, "0;0", false, 0, 1, -1, false, false, false, "", false); err == nil {
		t.Error("overlap: want error")
	}
	if err := run(&b, 8, false, "", false, 0, 1, 99, false, false, false, "", false); err == nil {
		t.Error("broadcast source out of range: want error")
	}
}
