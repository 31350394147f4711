package circuit

import "testing"

func TestCachedCompileReturnsSamePointer(t *testing.T) {
	p := SliceParams{Parties: 3, ShareBits: 7}
	a, err := CountBelowSliceCached(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountBelowSliceCached(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical params compiled twice")
	}
	other, err := CountBelowSliceCached(SliceParams{Parties: 3, ShareBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("distinct params shared a cache entry")
	}
}

func TestCachedCompileKeyCoversThresholds(t *testing.T) {
	base := SliceParams{Parties: 2, ShareBits: 5, CoinBits: 3, MixThreshold: 2}
	a, err := RevealSliceCached(base)
	if err != nil {
		t.Fatal(err)
	}
	changed := base
	changed.MixThreshold = 3
	b, err := RevealSliceCached(changed)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different mix thresholds shared a cache entry")
	}
	// CountBelowSlice keyed independently of RevealSlice.
	c, err := CountBelowSliceCached(SliceParams{Parties: 2, ShareBits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c == b {
		t.Fatal("RevealSlice and CountBelowSlice shared a cache entry")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	for slots := 1; slots <= cacheLimit+20; slots++ {
		if _, err := SliceCountCached(SliceCountParams{Parties: 2, Slots: slots}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheSize(); n > cacheLimit {
		t.Fatalf("cache holds %d circuits, limit %d", n, cacheLimit)
	}
}

func TestCachedCompileErrorNotCached(t *testing.T) {
	bad := SliceParams{Parties: 0, ShareBits: 4}
	if _, err := CountBelowSliceCached(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := CountBelowSliceCached(bad); err == nil {
		t.Fatal("invalid params accepted on second call")
	}
}
