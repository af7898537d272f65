package gates

// ResetForwardDelays clears the ForwardDelay memo, so a test can watch a
// size being simulated for the first time.
func ResetForwardDelays() {
	for i := range forwardDelays {
		forwardDelays[i].Store(0)
	}
}
