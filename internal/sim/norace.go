//go:build !race

package sim

// idleRunnerCap is how many finished runners wait for reuse. Without the
// race detector none do: every collection scans each parked coroutine's
// stack, which costs more than starting a new coroutine per process.
const idleRunnerCap = 0
