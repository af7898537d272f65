// Package gates provides the gate-level hardware model of Section 7 of
// Yang & Wang: bit-serial pipelined one-bit adders (Fig. 12), the
// embedded forward/backward trees of the distributed routing algorithms
// (Fig. 8), and a cycle-accurate simulation of those sweeps that measures
// routing time in units of one gate delay — the unit Table 2's
// routing-time column is stated in.
//
// The paper's argument: the forward phase pipelines one bit per gate
// delay up a log2(n)-level adder tree, so the first result bit reaches
// the root after O(log n) delays and each subsequent bit after O(1); the
// backward phase mirrors it. The simulation here reproduces exactly that
// schedule, so measured cycle counts grow as the paper's complexity
// claims say they must.
//
// ForwardSweep, BackwardSweep and MeasuredBackwardDelay simulate on
// every call. ForwardDelay, the worst-case figure every routing-delay
// model and cost row is built from, is memoized: each size is simulated
// once per process, so a cost row costs O(log n) integer work after its
// first use.
package gates

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"brsmn/internal/shuffle"
)

// Model constants: gate counts for the fixed-size circuit blocks. The
// absolute values are a conventional static CMOS accounting (a full adder
// is 2 XOR + 2 AND + 1 OR); only their constancy matters for the
// asymptotics.
const (
	// GatesPerFullAdder is the gate count of the one-bit full adder of
	// Fig. 12 (sum and carry logic).
	GatesPerFullAdder = 5
	// GatesPerRegisterBit models the flip-flop holding the carry or a
	// pipeline bit.
	GatesPerRegisterBit = 4
	// GatesPerSwitchDatapath is the data path of a 2x2 switch with
	// four settings: two 2:1 selectors per output plus setting decode.
	GatesPerSwitchDatapath = 12
	// RoutingAddersPerSwitch is the constant number of serial adder /
	// comparator blocks distributed into each switch for the
	// self-routing circuit (forward sum, backward mod/compare, setting
	// decision) — the "constant cost added to each switch" of
	// Section 7.4.
	RoutingAddersPerSwitch = 3
)

// GatesPerSwitch is the total per-switch gate cost: data path plus the
// distributed routing circuit (adders with their carry/pipeline
// registers).
const GatesPerSwitch = GatesPerSwitchDatapath +
	RoutingAddersPerSwitch*(GatesPerFullAdder+2*GatesPerRegisterBit)

// SerialAdder is a one-bit full adder with a carry register, fed LSB
// first — the Fig. 12 block.
type SerialAdder struct {
	carry uint8
}

// Step consumes one bit from each operand and emits one sum bit.
func (a *SerialAdder) Step(x, y uint8) uint8 {
	s := x ^ y ^ a.carry
	a.carry = (x & y) | (x & a.carry) | (y & a.carry)
	return s
}

// Reset clears the carry between additions.
func (a *SerialAdder) Reset() { a.carry = 0 }

// AddSerial adds two non-negative integers through a SerialAdder,
// returning the sum and the number of cycles consumed (max operand width
// + 1 for the final carry).
func AddSerial(x, y int) (sum, cycles int) {
	var a SerialAdder
	width := 1
	for v := x | y; v > 1; v >>= 1 {
		width++
	}
	for k := 0; k <= width; k++ { // one extra cycle flushes the carry
		bit := a.Step(uint8(x>>k&1), uint8(y>>k&1))
		sum |= int(bit) << k
		cycles++
	}
	return sum, cycles
}

// ForwardSweep simulates the forward phase of a distributed routing
// algorithm on an n-leaf adder tree (Fig. 8a): each leaf feeds its value
// bit-serially; every tree node is a pipelined serial adder with one gate
// delay of latency per bit. It returns the root sum and the cycle at
// which the root has emitted its last significant bit — the forward-phase
// routing time in gate delays.
func ForwardSweep(leaves []int) (sum, cycles int, err error) {
	n := len(leaves)
	if !shuffle.IsPow2(n) || n < 1 {
		return 0, 0, fmt.Errorf("gates: %d leaves is not a power of two >= 1", n)
	}
	if n == 1 {
		return leaves[0], 1, nil
	}
	m := shuffle.Log2(n)
	// width: enough serial bits for the maximal sum (n, needing log n +1
	// bits) plus the tree latency.
	bits := m + 2
	total := bits + m // pipeline drain: depth m, one delay per level

	// adders[level][i]: level 1 has n/2 adders ... level m has 1.
	adders := make([][]SerialAdder, m+1)
	// pipe[level][i] holds the bit emitted by node i of `level` last
	// cycle (level 0 = leaves).
	pipe := make([][]uint8, m+1)
	for lv := 0; lv <= m; lv++ {
		adders[lv] = make([]SerialAdder, n>>lv)
		pipe[lv] = make([]uint8, n>>lv)
	}
	lastSignificant := 0
	for cyc := 0; cyc < total; cyc++ {
		// Propagate top-down over levels so each level consumes the
		// bits its children emitted on the previous cycle.
		for lv := m; lv >= 1; lv-- {
			for i := range adders[lv] {
				pipeBit := adders[lv][i].Step(pipe[lv-1][2*i], pipe[lv-1][2*i+1])
				if lv == m {
					// Leaf bit 0 is emitted at the end of cycle 0 and
					// crosses m pipelined levels, so the root emits sum
					// bit k during cycle m+k.
					if pipeBit == 1 && cyc >= m {
						sum |= 1 << (cyc - m)
						lastSignificant = cyc + 1
					}
				} else {
					// Stash for the parent next cycle; written after
					// the parent has read? Parent (lv+1) was processed
					// earlier this cycle, so writing now is safe.
					pipe[lv][i] = pipeBit
				}
			}
		}
		// Leaves emit their next bit.
		for i, v := range leaves {
			pipe[0][i] = uint8(v >> cyc & 1)
		}
	}
	if lastSignificant == 0 {
		lastSignificant = m + 1 // an all-zero sum still pays the latency
	}
	return sum, lastSignificant, nil
}

// forwardDelays memoizes ForwardDelay by log2 n; 0 means not yet
// simulated. A power of two below 2^63 has at most 63 as its log, so the
// table is bounded whatever sizes callers ask for.
var forwardDelays [64]atomic.Int64

// ForwardDelay returns the forward-phase delay in gate delays for an
// n-input RBN: measured by simulating the sweep on worst-case leaf
// values (all ones, maximizing the sum's bit width). The result depends
// on n alone, so each size is simulated once and later calls read the
// memo. It panics if n is not a power of two.
func ForwardDelay(n int) int {
	if !shuffle.IsPow2(n) {
		panic(fmt.Errorf("gates: %d leaves is not a power of two >= 1", n)) // n is validated by callers
	}
	slot := &forwardDelays[bits.TrailingZeros(uint(n))]
	if d := slot.Load(); d != 0 {
		return int(d)
	}
	leaves := make([]int, n)
	for i := range leaves {
		leaves[i] = 1
	}
	_, cycles, err := ForwardSweep(leaves)
	if err != nil {
		panic(err)
	}
	slot.Store(int64(cycles))
	return cycles
}

// BackwardDelay returns the backward-phase delay for an n-input RBN. The
// backward computation per node (two mods and an add on log n-bit values,
// Tables 3–4) pipelines exactly like the forward phase, so the delay has
// the same shape; the paper treats the two as symmetric and so does this
// model.
func BackwardDelay(n int) int { return ForwardDelay(n) }

// RBNRoutingDelay is the routing time of one RBN switch-setting
// computation in gate delays: forward sweep + backward sweep + one delay
// for the parallel switch-setting step (Section 6.1).
func RBNRoutingDelay(n int) int {
	return ForwardDelay(n) + BackwardDelay(n) + 1
}

// BSNRoutingDelay is the routing time of one binary splitting network:
// the scatter RBN's sweeps, the ε-divide sweeps (Table 6, same tree),
// and the quasisort (bit-sort) RBN's sweeps, in sequence.
func BSNRoutingDelay(n int) int {
	return 3 * RBNRoutingDelay(n)
}

// BRSMNRoutingDelay is the total routing time of the unrolled n x n
// BRSMN: the levels run in sequence (level k+1 cannot set switches until
// level k has delivered its tags), giving the paper's recurrence
// T(n) = O(log n) + T(n/2) = O(log^2 n).
func BRSMNRoutingDelay(n int) int {
	total := 0
	for size := n; size > 2; size /= 2 {
		total += BSNRoutingDelay(size)
	}
	return total + 1 // final delivery column sets in one delay
}

// FeedbackRoutingDelay is the routing time of the feedback
// implementation: identical phase structure (the same sweeps run on the
// same tree hardware, just reusing one RBN), plus one pass-turnaround
// delay per feedback wrap.
func FeedbackRoutingDelay(n int) int {
	total := 0
	passes := 0
	for size := n; size > 2; size /= 2 {
		total += BSNRoutingDelay(size)
		passes += 2
	}
	return total + passes + 1
}
