// Command brsmnroute routes a multicast assignment through the BRSMN and
// prints the resulting configuration and deliveries.
//
// Usage:
//
//	brsmnroute -fig2                         # the paper's 8x8 example (Fig. 2)
//	brsmnroute -n 8 -assign "0,1;;3,4,7;2;;;;5,6"
//	brsmnroute -n 64 -random -load 0.8 -seed 42
//	brsmnroute -n 16 -broadcast 3 -feedback
//
// The -assign syntax lists one destination set per input, ';'-separated,
// each set a ','-separated list of outputs (empty for idle inputs).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"brsmn/internal/core"
	"brsmn/internal/diagram"
	"brsmn/internal/feedback"
	"brsmn/internal/mcast"
	"brsmn/internal/svg"
	"brsmn/internal/workload"
)

func main() {
	var (
		n       = flag.Int("n", 8, "network size (power of two)")
		fig2    = flag.Bool("fig2", false, "route the paper's Fig. 2 example")
		assign  = flag.String("assign", "", "assignment: per-input destination sets, e.g. \"0,1;;3,4,7;2;;;;5,6\"")
		random  = flag.Bool("random", false, "route a random assignment")
		load    = flag.Float64("load", 0.8, "output load for -random")
		seed    = flag.Int64("seed", 1, "random seed")
		bcast   = flag.Int("broadcast", -1, "route a full broadcast from this input")
		fb      = flag.Bool("feedback", false, "use the feedback implementation (Fig. 13)")
		seqs    = flag.Bool("sequences", true, "print routing-tag sequences")
		verbose = flag.Bool("v", false, "print per-level switch plans")
		svgOut  = flag.String("svg", "", "also write an SVG figure of the routing to this file")
		trees   = flag.Bool("trees", false, "print each multicast's routing-tag tree (Fig. 9)")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *fig2, *assign, *random, *load, *seed, *bcast, *fb, *seqs, *verbose, *svgOut, *trees); err != nil {
		fmt.Fprintln(os.Stderr, "brsmnroute:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n int, fig2 bool, assign string, random bool, load float64, seed int64, bcast int, fb, seqs, verbose bool, svgOut string, trees bool) error {
	var a mcast.Assignment
	var err error
	switch {
	case fig2:
		a = workload.PaperFig2()
	case assign != "":
		a, err = parseAssignment(n, assign)
		if err != nil {
			return err
		}
	case bcast >= 0:
		a, err = mcast.Broadcast(n, bcast)
		if err != nil {
			return err
		}
	case random:
		a = workload.Random(rand.New(rand.NewSource(seed)), n, load, 0.5)
	default:
		return fmt.Errorf("choose one of -fig2, -assign, -broadcast or -random")
	}

	if seqs {
		s, err := diagram.RenderSequences(a)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Routing-tag sequences (Section 7.1):")
		fmt.Fprint(w, s)
		fmt.Fprintln(w)
	}

	if trees {
		for i, ds := range a.Dests {
			if len(ds) == 0 {
				continue
			}
			tree, err := mcast.BuildTagTree(a.N, ds)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "input %d tag tree (Fig. 9):\n%s\n", i, diagram.RenderTagTree(tree))
		}
	}

	if fb {
		nw, err := feedback.New(a.N)
		if err != nil {
			return err
		}
		res, err := nw.Route(a)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Feedback BRSMN: %d passes over one %d x %d RBN (%d switches)\n",
			res.NumPasses(), a.N, a.N, nw.HardwareSwitches())
		for out, d := range res.Deliveries {
			if d.Source < 0 {
				fmt.Fprintf(w, "output %d: (idle)\n", out)
			} else {
				fmt.Fprintf(w, "output %d: from input %d\n", out, d.Source)
			}
		}
		if verbose {
			for k, p := range res.Passes {
				fmt.Fprintf(w, "\npass %d:\n%s", k+1, diagram.RenderPlan(p))
			}
		}
		return nil
	}

	nw, err := core.New(a.N)
	if err != nil {
		return err
	}
	res, err := nw.Route(a)
	if err != nil {
		return err
	}
	fmt.Fprint(w, diagram.RenderRoute(a, res))
	if svgOut != "" {
		doc, err := svg.Render(a, res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(svgOut, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote SVG figure to %s\n", svgOut)
	}
	if verbose {
		for _, lp := range res.Plans {
			fmt.Fprintf(w, "\nlevel %d BSN at outputs [%d,%d): scatter plan\n%s\nquasisort plan\n%s",
				lp.Level, lp.Base, lp.Base+lp.Size,
				diagram.RenderPlan(lp.Scatter), diagram.RenderPlan(lp.Quasi))
		}
	}
	return nil
}

// parseAssignment parses the ';'-separated destination-set syntax.
func parseAssignment(n int, s string) (mcast.Assignment, error) {
	parts := strings.Split(s, ";")
	if len(parts) > n {
		return mcast.Assignment{}, fmt.Errorf("%d destination sets for %d inputs", len(parts), n)
	}
	dests := make([][]int, n)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		for _, f := range strings.Split(p, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return mcast.Assignment{}, fmt.Errorf("input %d: bad destination %q", i, f)
			}
			dests[i] = append(dests[i], d)
		}
	}
	return mcast.New(n, dests)
}
