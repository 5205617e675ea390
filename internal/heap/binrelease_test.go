package heap

import (
	"strings"
	"testing"

	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// binnedSetup allocates a page-spanning chunk, dirties its pages, pins the
// heap behind it so a free cannot reach the top chunk, and frees it into a
// bin. Returns the user pointer of the (now free) chunk and the pin.
func binnedSetup(t *testing.T, th *sim.Thread, a *Arena, n uint32) (mem, pin uint64) {
	t.Helper()
	mem = mustMalloc(t, th, a, n)
	as := a.AddressSpace()
	for off := uint64(0); off < uint64(n); off += vm.PageSize {
		as.Write8(th, mem+off, 0xAB)
	}
	as.Write8(th, mem+uint64(n)-1, 0xAB)
	pin = mustMalloc(t, th, a, 24)
	mustFree(t, th, a, mem)
	return mem, pin
}

// TestReleaseBinnedIdleChunk: the interior pages of an idle binned chunk are
// handed back; the header, fd/bk and footer stay resident so the structural
// checker and the next carve-out keep working, with the carve-out paying
// refaults.
func TestReleaseBinnedIdleChunk(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		mem, _ := binnedSetup(t, th, a, 20000)
		before := as.Stats()
		th.Charge(100)

		n := a.ReleaseBinned(th, th.Now(), 0, 0)
		if n == 0 {
			t.Fatal("ReleaseBinned released nothing from a 20000-byte idle binned chunk")
		}
		st := a.Stats()
		if st.BinReleases != 1 || st.BinBytesReleased != n {
			t.Errorf("BinReleases=%d BinBytesReleased=%d, want 1/%d", st.BinReleases, st.BinBytesReleased, n)
		}
		vs := as.Stats()
		if got := (vs.PagesReleased - before.PagesReleased) * vm.PageSize; got != n {
			t.Errorf("vm released %d bytes, arena reports %d", got, n)
		}
		if vs.ResidentBytes >= before.ResidentBytes {
			t.Errorf("residency did not drop: %d -> %d", before.ResidentBytes, vs.ResidentBytes)
		}
		// The dirtied interior now reads as zero (uncharged peek: released
		// pages are simply absent)...
		if got := as.Peek8(mem + 8192); got != 0 {
			t.Errorf("released interior byte = %#x, want 0", got)
		}
		// ...while the chunk header and fd/bk at the front stayed resident.
		c := mem - HeaderSz
		if a.as.Peek32(c+4)&^FlagMask == 0 {
			t.Error("chunk size word lost with the released interior")
		}
		mustCheck(t, a)

		// Re-carving the chunk must work and pay refaults for the interior.
		refBefore := as.Stats().Refaults
		p2 := mustMalloc(t, th, a, 20000)
		if p2 != mem {
			t.Fatalf("re-malloc got 0x%x, want the binned chunk 0x%x", p2, mem)
		}
		for off := uint64(0); off < 20000; off += vm.PageSize {
			as.Write8(th, p2+off, 0xCD)
		}
		if got := as.Stats().Refaults; got <= refBefore {
			t.Errorf("refaults %d -> %d: re-carving released pages charged no refault", refBefore, got)
		}
		mustCheck(t, a)
	})
}

// TestReleaseBinnedRespectsCutoff: a chunk binned at or after the cutoff is
// hot and must be left alone.
func TestReleaseBinnedRespectsCutoff(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		cutoff := th.Now() // everything binned from here on is hot
		binnedSetup(t, th, a, 20000)
		if n := a.ReleaseBinned(th, cutoff, 0, 0); n != 0 {
			t.Errorf("ReleaseBinned(cutoff before the free) released %d bytes, want 0", n)
		}
		if st := a.Stats(); st.BinReleases != 0 {
			t.Errorf("BinReleases=%d, want 0", st.BinReleases)
		}
		mustCheck(t, a)
	})
}

// TestReleaseBinnedMinBytes: chunks whose releasable interior is below the
// floor are skipped — the madvise is not worth its syscall.
func TestReleaseBinnedMinBytes(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		binnedSetup(t, th, a, 20000) // ~16KB releasable
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 64*1024, 0); n != 0 {
			t.Errorf("ReleaseBinned(minBytes=64K) released %d bytes from a 20000-byte chunk, want 0", n)
		}
		if n := a.ReleaseBinned(th, th.Now(), 8*1024, 0); n == 0 {
			t.Error("ReleaseBinned(minBytes=8K) released nothing from a 20000-byte chunk")
		}
		mustCheck(t, a)
	})
}

// TestReleaseBinnedRepeatSweepIsFree: a second sweep over an already released
// chunk must not issue another madvise (no fresh MadviseCalls, no double
// counting).
func TestReleaseBinnedRepeatSweepIsFree(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		binnedSetup(t, th, a, 20000)
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 0, 0); n == 0 {
			t.Fatal("first sweep released nothing")
		}
		calls := as.Stats().MadviseCalls
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 0, 0); n != 0 {
			t.Errorf("second sweep released %d bytes again", n)
		}
		if got := as.Stats().MadviseCalls; got != calls {
			t.Errorf("second sweep issued %d extra madvise calls", got-calls)
		}
		if st := a.Stats(); st.BinReleases != 1 {
			t.Errorf("BinReleases=%d after two sweeps of one chunk, want 1", st.BinReleases)
		}
	})
}

// TestReleaseBinnedCoalesceAndRecarve: a released chunk still coalesces with
// a freed neighbour (footer and fd/bk stayed resident), the merged chunk can
// be released again after going idle, and carving from it round-trips data.
func TestReleaseBinnedCoalesceAndRecarve(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		A := mustMalloc(t, th, a, 20000)
		B := mustMalloc(t, th, a, 20000)
		mustMalloc(t, th, a, 24) // pin so B cannot merge into top
		for off := uint64(0); off < 20000; off += vm.PageSize {
			as.Write8(th, A+off, 0xAA)
			as.Write8(th, B+off, 0xBB)
		}
		mustFree(t, th, a, A)
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 0, 0); n == 0 {
			t.Fatal("release of A's interior released nothing")
		}
		// Freeing B backward-coalesces across A's released interior: the
		// merge reads only A's resident front words and footer.
		mustFree(t, th, a, B)
		mustCheck(t, a)
		// The merged chunk was re-binned hot; after an idle epoch the sweep
		// takes B's half too.
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 0, 0); n == 0 {
			t.Fatal("release of the merged chunk released nothing")
		}
		mustCheck(t, a)
		// Carve a piece out of the merged chunk and verify it holds data.
		p := mustMalloc(t, th, a, 35000)
		for off := uint64(0); off < 35000; off += 1000 {
			as.Write8(th, p+off, byte(off))
		}
		for off := uint64(0); off < 35000; off += 1000 {
			if got := as.Read8(th, p+off); got != byte(off) {
				t.Fatalf("carved chunk data at +%d = %#x, want %#x", off, got, byte(off))
			}
		}
		mustCheck(t, a)
	})
}

// TestSubPageChunkCarriesNoTag: a freed chunk with no whole page inside can
// never be released, so binning it leaves the release books untouched.
func TestSubPageChunkCarriesNoTag(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		mem := mustMalloc(t, th, a, 2000)
		mustMalloc(t, th, a, 24) // pin so the free cannot merge into top
		mustFree(t, th, a, mem)
		if _, ok := a.binStamps[mem-HeaderSz]; ok {
			t.Error("binned sub-page chunk carries a release tag")
		}
		if len(a.binStamps) != 0 || a.BinResidentEstimate() != 0 {
			t.Errorf("release books hold %d tags, %d resident bytes; want none", len(a.binStamps), a.BinResidentEstimate())
		}
		mustCheck(t, a)
	})
}

// TestPageSpanningChunkKeepsTagAfterRelease: a binned chunk with whole pages
// inside carries a tag counting them resident, and keeps the tag — with
// nothing left resident — once ReleaseBinned has handed the pages back.
func TestPageSpanningChunkKeepsTagAfterRelease(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		mem, _ := binnedSetup(t, th, a, 20000)
		c := mem - HeaderSz
		lo, hi := binReleasable(c, a.ChunkSizeOf(th, mem))
		tag, ok := a.binStamps[c]
		if !ok || tag.resident != hi-lo || hi <= lo {
			t.Fatalf("tag = %+v (present %v), want resident %d > 0", tag, ok, hi-lo)
		}
		th.Charge(100)
		if n := a.ReleaseBinned(th, th.Now(), 0, 0); n == 0 {
			t.Fatal("ReleaseBinned released nothing")
		}
		tag, ok = a.binStamps[c]
		if !ok || tag.resident != 0 {
			t.Errorf("after release tag = %+v (present %v), want present with resident 0", tag, ok)
		}
		mustCheck(t, a)
	})
}

// TestCheckReportsMissingTag: Check catches a page-spanning binned chunk
// whose release tag is gone, even with the resident sum kept consistent.
func TestCheckReportsMissingTag(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		mem, _ := binnedSetup(t, th, a, 20000)
		c := mem - HeaderSz
		a.binResident -= a.binStamps[c].resident
		delete(a.binStamps, c)
		err := a.Check()
		if err == nil || !strings.Contains(err.Error(), "has no release tag") {
			t.Errorf("Check = %v, want a missing release tag report", err)
		}
	})
}

// TestCheckReportsStrayTag: Check catches a tag on a chunk that is not
// binned, and a tag on a binned chunk with no whole page inside.
func TestCheckReportsStrayTag(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		live := mustMalloc(t, th, a, 20000)
		a.binStamps[live-HeaderSz] = binTag{}
		err := a.Check()
		if err == nil || !strings.Contains(err.Error(), "not binned") {
			t.Errorf("Check with a tag on an in-use chunk = %v, want a not-binned report", err)
		}
		delete(a.binStamps, live-HeaderSz)

		small := mustMalloc(t, th, a, 2000)
		mustMalloc(t, th, a, 24) // pin
		mustFree(t, th, a, small)
		mustCheck(t, a)
		a.binStamps[small-HeaderSz] = binTag{}
		err = a.Check()
		if err == nil || !strings.Contains(err.Error(), "no whole page inside") {
			t.Errorf("Check with a tag on a sub-page binned chunk = %v, want a no-whole-page report", err)
		}
	})
}
