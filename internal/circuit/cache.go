package circuit

import (
	"fmt"
	"sync"
)

// Compilation cache. The secure construction evaluates the same slab
// circuit for every 64-identity slab of a construction — compilation
// (gate emission, constant folding, round scheduling) is pure CPU waste
// when the parameters repeat. Compiled *Circuit values are immutable after
// Build (the GMW evaluator already shares one circuit across all party
// goroutines), so handing the same pointer to every caller is safe.
//
// The cache is a bounded FIFO keyed by the full parameter set. Slab
// circuits take thresholds as data, so a key repeats across every slab of
// a construction and across construction reruns, worker counts and
// experiment sweeps within one process; only the public mixing threshold
// (Reveal) and the opener's slot count vary between runs.

const cacheLimit = 128

var compileCache = struct {
	sync.Mutex
	circuits map[string]*Circuit
	order    []string // insertion order for FIFO eviction
}{circuits: make(map[string]*Circuit)}

// cachedCompile returns the memoized circuit for key, compiling and
// inserting on miss. Errors are not cached: invalid parameters are a
// caller bug and the recompile cost of reporting them twice is irrelevant.
func cachedCompile(key string, compile func() (*Circuit, error)) (*Circuit, error) {
	compileCache.Lock()
	if c, ok := compileCache.circuits[key]; ok {
		compileCache.Unlock()
		return c, nil
	}
	compileCache.Unlock()

	// Compile outside the lock: a miss must not serialize every other
	// caller behind it. A racing duplicate compile is harmless — last
	// writer wins and both results are equivalent.
	c, err := compile()
	if err != nil {
		return nil, err
	}

	compileCache.Lock()
	defer compileCache.Unlock()
	if prev, ok := compileCache.circuits[key]; ok {
		return prev, nil // racer got there first; keep one canonical copy
	}
	if len(compileCache.order) >= cacheLimit {
		oldest := compileCache.order[0]
		compileCache.order = compileCache.order[1:]
		delete(compileCache.circuits, oldest)
	}
	compileCache.circuits[key] = c
	compileCache.order = append(compileCache.order, key)
	return c, nil
}

// cacheSize reports the number of cached circuits (tests only).
func cacheSize() int {
	compileCache.Lock()
	defer compileCache.Unlock()
	return len(compileCache.circuits)
}

// CountBelowSliceCached is CountBelowSlice memoized by its parameters.
func CountBelowSliceCached(p SliceParams) (*Circuit, error) {
	key := fmt.Sprintf("cbs|%d|%d|%d", p.Parties, p.ShareBits, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return CountBelowSlice(p) })
}

// RevealSliceCached is RevealSlice memoized by its parameters.
func RevealSliceCached(p SliceParams) (*Circuit, error) {
	key := fmt.Sprintf("rvs|%d|%d|%d|%d|%d", p.Parties, p.ShareBits, p.CoinBits, p.MixThreshold, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return RevealSlice(p) })
}

// SliceCountCached is SliceCount memoized by its parameters.
func SliceCountCached(p SliceCountParams) (*Circuit, error) {
	key := fmt.Sprintf("sc|%d|%d|%d", p.Parties, p.Slots, p.Arithmetic)
	return cachedCompile(key, func() (*Circuit, error) { return SliceCount(p) })
}
