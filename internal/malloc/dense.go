package malloc

// denseTable maps small non-negative integer keys to values through a slice
// indexed by the key, in place of a Go map. It holds all of the allocator's
// per-thread state keyed by sim thread ID — dense, because a machine gives
// its n-th thread ID n — and all of its per-class state keyed by classSlot:
// magazine classes, depot classes, the service mailbox's class records and
// the buddy backend's partial lists. The zero value of V means absent: get
// of a key never set returns it, and set(k, zero) deletes k. The slice
// grows on demand to the largest key set. Walks over it take ascending key
// order, so no sweep leaks Go map order into the simulation.
type denseTable[V comparable] struct{ slots []V }

func (d *denseTable[V]) get(k int) V {
	if k < len(d.slots) {
		return d.slots[k]
	}
	var zero V
	return zero
}

func (d *denseTable[V]) set(k int, v V) {
	if k >= len(d.slots) {
		d.slots = append(d.slots, make([]V, k+1-len(d.slots))...)
	}
	d.slots[k] = v
}

// keys returns the present keys in ascending order: the deterministic walk
// every sweep over per-thread or per-class state takes.
func (d *denseTable[V]) keys() []int {
	var zero V
	ks := make([]int, 0, len(d.slots))
	for k, v := range d.slots {
		if v != zero {
			ks = append(ks, k)
		}
	}
	return ks
}

// classSlot is a size class's key in a class table: chunk sizes are
// multiples of 8, so size/8 is dense and keeps ascending order. slotClass
// inverts it.
func classSlot(csz uint32) int { return int(csz >> 3) }

func slotClass(k int) uint32 { return uint32(k) << 3 }
