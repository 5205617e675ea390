package vm

// Slab geometry: granules and page records are carved from fixed-size
// slabs, so a cold fault allocates host memory once per slab and a warm one
// never does.
const (
	slabGranules = 128 // 6 KB of granules
	slabPages    = 64  // 10 KB of page records
)

// pool holds one address space's granules and page records and recycles
// them. A granule is named by its number in the pool — slab number times
// slabGranules plus its place in the slab — which a page keeps in 4 bytes
// instead of an 8-byte pointer the garbage collector would scan. Slabs are
// never freed or moved, so a granule's address is stable for the life of
// the address space, and the address space may keep the last granule it
// resolved. Evicting a page returns its record and its granules to the
// free lists here; the next fault draws from them, last freed first.
type pool struct {
	slabs []*[slabGranules]granule
	n     uint32   // granules carved
	grans []uint32 // numbers of freed granules
	pages []*page  // freed page records, each with an empty slot index
	pslab []page   // the uncarved rest of the newest page-record slab
}

// at returns granule number r.
func (pl *pool) at(r uint32) *granule { return &pl.slabs[r/slabGranules][r%slabGranules] }

// granule returns the number of a zero granule: its bytes read as zero and
// its line is invalid in every cache, exactly as if never touched.
func (pl *pool) granule() uint32 {
	if n := len(pl.grans); n > 0 {
		r := pl.grans[n-1]
		pl.grans = pl.grans[:n-1]
		*pl.at(r) = granule{}
		return r
	}
	if pl.n%slabGranules == 0 {
		pl.slabs = append(pl.slabs, new([slabGranules]granule))
	}
	pl.n++
	return pl.n - 1
}

// page returns an empty record homed on node: no granule touched. A
// recycled record keeps the capacity of its granule list, so a warm fault
// allocates nothing.
func (pl *pool) page(node int8) *page {
	var p *page
	if n := len(pl.pages); n > 0 {
		p = pl.pages[n-1]
		pl.pages = pl.pages[:n-1]
	} else {
		if len(pl.pslab) == 0 {
			pl.pslab = make([]page, slabPages)
		}
		p = &pl.pslab[0]
		pl.pslab = pl.pslab[1:]
	}
	p.node = node
	return p
}

// put takes back an evicted page's record and granules.
func (pl *pool) put(p *page) {
	pl.grans = append(pl.grans, p.grans...)
	p.grans = p.grans[:0]
	p.slot = [pageGranules]uint8{}
	pl.pages = append(pl.pages, p)
}
