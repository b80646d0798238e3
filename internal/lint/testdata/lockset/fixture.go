// Fixture for the lockset analyzer: flow-sensitive lock discipline —
// guarded-by enforcement on every path, double-lock, unlock-without-lock,
// leak-at-return, loop neutrality, helper summaries and blocking drains.
package lockset

import "sync"

type table struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	count int            // prefdb:guarded-by mu
	names map[string]int // prefdb:guarded-by rw
}

// goodDefer is the canonical shape: lock, defer unlock, access.
func goodDefer(t *table) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	return t.count
}

// goodExplicit unlocks explicitly on the single path.
func goodExplicit(t *table) {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

// goodEarlyReturn releases the lock on both the early and the fallthrough
// path — the branch merge must see mu released either way.
func goodEarlyReturn(t *table, stop bool) {
	t.mu.Lock()
	if stop {
		t.count = 0
		t.mu.Unlock()
		return
	}
	t.count++
	t.mu.Unlock()
}

// goodSwitch accesses under the lock across switch arms.
func goodSwitch(t *table, k int) {
	t.mu.Lock()
	switch k {
	case 1:
		t.count++
	default:
		t.count--
	}
	t.mu.Unlock()
}

// goodRead takes the read lock for the guarded map.
func goodRead(t *table) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.names["x"]
}

// goodInfiniteLoop is lock-neutral per iteration.
func goodInfiniteLoop(t *table) {
	for {
		t.mu.Lock()
		t.count++
		t.mu.Unlock()
	}
}

// badUnguarded touches the guarded counter with no lock at all.
func badUnguarded(t *table) {
	t.count++ // want `access to table.count without holding mu`
}

// badBranch locks on only one branch: after the merge (intersection) the
// lock is not held, so both the access and the unlock are findings.
func badBranch(t *table, cond bool) {
	if cond {
		t.mu.Lock()
	}
	t.count++     // want `access to table.count without holding mu`
	t.mu.Unlock() // want `Unlock of t.mu, which is not held on this path`
}

// badDouble locks the same mutex twice on one path.
func badDouble(t *table) {
	t.mu.Lock()
	t.mu.Lock() // want `t.mu is locked again while already held`
	t.mu.Unlock()
}

// badUnlockOnly releases a mutex that was never acquired.
func badUnlockOnly(t *table) {
	t.mu.Unlock() // want `Unlock of t.mu, which is not held on this path`
}

// badLeak returns early while still holding the lock.
func badLeak(t *table, stop bool) {
	t.mu.Lock()
	if stop {
		return // want `t.mu is still held at return`
	}
	t.mu.Unlock()
}

// badDeferInLoop schedules the unlock at function exit, so iteration two
// double-locks.
func badDeferInLoop(t *table, n int) {
	for i := 0; i < n; i++ {
		t.mu.Lock() // want `t.mu is locked in a loop body with only a deferred unlock`
		defer t.mu.Unlock()
		t.count++
	}
}

// badHeldAcrossIterations forgets the unlock inside the loop body.
func badHeldAcrossIterations(t *table, n int) {
	for i := 0; i < n; i++ {
		t.mu.Lock() // want `t.mu is still held at the end of the loop body`
		t.count++
	}
}

// badUnlockInLoop releases an entry lock inside the body: the second
// iteration unlocks an unheld mutex.
func badUnlockInLoop(t *table, n int) {
	t.mu.Lock()
	for i := 0; i < n; i++ { // want `t.mu held at loop entry is released inside the loop body`
		t.count++
		t.mu.Unlock()
	}
}

// badMismatch pairs a read lock with a write unlock.
func badMismatch(t *table) {
	t.rw.RLock()
	t.rw.Unlock() // want `t.rw was acquired with RLock but released with Unlock`
}

// lockedHelper documents that callers hold t.mu; the seeded entry state
// makes the guarded access below clean.
// prefdb:locked mu
func (t *table) lockedHelper() {
	t.count++
}

// releaseHelper runs under t.mu and hands the release to the helper — the
// summary records the release so goodHandoff's return is clean.
// prefdb:locked mu
func (t *table) releaseHelper() {
	t.count = 0
	t.mu.Unlock()
}

// acquireHelper takes the lock on behalf of its caller.
// prefdb:lock-escapes mu
func (t *table) acquireHelper() {
	t.mu.Lock()
}

func goodHelperCall(t *table) {
	t.mu.Lock()
	t.lockedHelper()
	t.mu.Unlock()
}

func badHelperCall(t *table) {
	t.lockedHelper() // want `call to lockedHelper requires mu held at entry`
}

func goodHandoff(t *table) {
	t.mu.Lock()
	t.releaseHelper()
}

func goodAcquireHelper(t *table) {
	t.acquireHelper()
	t.count++
	t.mu.Unlock()
}

// badWaitUnderLock drains a WaitGroup while holding a mutex.
func badWaitUnderLock(t *table, wg *sync.WaitGroup) {
	t.mu.Lock()
	wg.Wait() // want `blocking WaitGroup.Wait while holding t.mu`
	t.mu.Unlock()
}

// Table stands in for catalog.Table, whose ColStore is a synchronous
// full-table build.
type Table struct{}

func (*Table) ColStore() {}

// badColStoreUnderLock builds a columnar image while holding a mutex.
func badColStoreUnderLock(t *table, ct *Table) {
	t.mu.Lock()
	ct.ColStore() // want `blocking Table.ColStore \(synchronous full-table build\) while holding t.mu`
	t.mu.Unlock()
}

// goodWaitAfterUnlock releases before draining.
func goodWaitAfterUnlock(t *table, wg *sync.WaitGroup) {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
	wg.Wait()
}

// goodGoroutineBody: the spawned body starts with an empty lock set and
// is checked independently.
func goodGoroutineBody(t *table) {
	t.mu.Lock()
	go func() {
		t.mu.Lock()
		t.count++
		t.mu.Unlock()
	}()
	t.count++
	t.mu.Unlock()
}

// suppressed documents a sanctioned exception on the access line.
func suppressed(t *table) int {
	return t.count // prefdb:lockset-ok constructor path, no concurrent reader yet
}
