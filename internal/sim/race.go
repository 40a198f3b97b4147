//go:build race

package sim

// idleRunnerCap is how many finished runners wait for reuse. Under the race
// detector runners are recycled: the runtime never releases a coroutine's
// race-detector state when the coroutine exits, so a new coroutine per
// process leaks a few KB each.
const idleRunnerCap = 4096
