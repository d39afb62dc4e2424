package core

// The cache-packed routing table. Each router shard owns one cookieTable:
// an open-addressed, linear-probing cookie→conn map that replaces the
// built-in map the shards used before the million-connection work
// (DESIGN.md §14).
//
// Layout is the point. Keys live in their own []uint64, eight per cache
// line, so a probe sequence of typical length touches exactly one line of
// key memory; the per-entry value (connection pointer + GC metadata) lives
// in a parallel array touched only on a hit. A map bucket interleaves
// keys, values and tophash bytes, and at a million entries the difference
// is one-versus-several cache misses on every unidentified-path lookup —
// the ONCache observation applied to the router.
//
// The table is NOT internally synchronized: readers hold the shard's
// RLock, writers (insert, delete, grow) the full Lock. The one field
// mutated under the read lock is slotVal.meta — the GC epoch refresh on a
// routed lookup — which is therefore accessed with sync/atomic package
// functions. meta is a plain uint64, not an atomic.Uint64: backward-shift
// deletion relocates slots by assignment, which the noCopy guard inside
// atomic.Uint64 would (rightly) flag.

// minTableSlots is the initial capacity of a shard table (power of two).
// 64 slots = one 512-byte key block; a fresh endpoint's 64 shards cost
// ~96 KiB of table memory in total, paid lazily on first bind.
const minTableSlots = 64

// tableSlotBytes is the per-slot memory cost surfaced by the accounting:
// 8 bytes of key plus 16 bytes of slotVal (conn pointer, packed meta).
const tableSlotBytes = 8 + 16

// slotVal is the value half of one occupied slot.
type slotVal struct {
	conn *Conn
	// meta packs the entry's GC state: bit 0 is the learned flag, the
	// remaining bits the GC epoch at last use. Read/written with
	// sync/atomic functions when only the shard read-lock is held.
	meta uint64
}

const metaLearnedBit = 1

func packMeta(epoch uint64, learned bool) uint64 {
	m := epoch << 1
	if learned {
		m |= metaLearnedBit
	}
	return m
}

func metaEpoch(m uint64) uint64 { return m >> 1 }
func metaLearned(m uint64) bool { return m&metaLearnedBit != 0 }
func metaStamp(m, epoch uint64) uint64 {
	return epoch<<1 | m&metaLearnedBit
}

// slotHash positions a cookie within a shard table. The same golden-ratio
// product as shardIndex, but the shard takes the top 6 bits and the slot
// the bottom log2(cap) bits, so the two indices stay independent.
func slotHash(cookie uint64) uint64 { return cookie * 0x9E3779B97F4A7C15 }

// cookieTable is one shard's open-addressed cookie→conn table. The zero
// value is an empty table; the first insert allocates minTableSlots.
// Cookie 0 is the empty-slot sentinel and is never stored (the router
// refuses to bind it; honest peers draw 62-bit random cookies).
type cookieTable struct {
	keys []uint64 // len = capacity, power of two; 0 marks an empty slot
	vals []slotVal
	mask uint64 // len(keys)-1
	used int
	// maxSlots caps growth (the endpoint derives it from Config.MaxConns);
	// 0 means minTableSlots.
	maxSlots int
}

// lookup returns the slot value for cookie, or nil. Caller holds at least
// the shard read-lock; the returned pointer is only valid while it does.
func (t *cookieTable) lookup(cookie uint64) *slotVal {
	if t.used == 0 || cookie == 0 {
		return nil
	}
	i := slotHash(cookie) & t.mask
	for {
		switch t.keys[i] {
		case cookie:
			return &t.vals[i]
		case 0:
			return nil
		}
		i = (i + 1) & t.mask
	}
}

// insert adds cookie→(conn, meta), growing at 3/4 load while the ceiling
// allows. It reports false when the table is at its hard capacity (load
// 7/8 of maxSlots); the cookie must not already be present (callers check
// under the same lock). Caller holds the shard write-lock.
func (t *cookieTable) insert(cookie uint64, c *Conn, meta uint64) bool {
	if t.keys == nil {
		t.init(minTableSlots)
	}
	if (t.used+1)*4 > len(t.keys)*3 && !t.grow() {
		// Ceiling reached: admit up to 7/8 load so the last admitted
		// entries still probe short chains, then refuse.
		if (t.used+1)*8 > len(t.keys)*7 {
			return false
		}
	}
	i := slotHash(cookie) & t.mask
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = cookie
	t.vals[i] = slotVal{conn: c, meta: meta}
	t.used++
	return true
}

// delete removes cookie, compacting its probe chain by backward shift so
// the table never accumulates tombstones. Reports whether the cookie was
// present. Caller holds the shard write-lock.
func (t *cookieTable) delete(cookie uint64) bool {
	if t.used == 0 || cookie == 0 {
		return false
	}
	i := slotHash(cookie) & t.mask
	for t.keys[i] != cookie {
		if t.keys[i] == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
	t.used--
	// Backward-shift: walk the chain after the hole; any entry whose home
	// slot does not lie cyclically in (i, j] can fill the hole.
	j := i
	for {
		t.keys[i] = 0
		t.vals[i] = slotVal{}
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == 0 {
				return true
			}
			home := slotHash(k) & t.mask
			if i <= j {
				if i < home && home <= j {
					continue
				}
			} else if home > i || home <= j {
				continue
			}
			break
		}
		t.keys[i] = t.keys[j]
		t.vals[i] = t.vals[j]
		i = j
	}
}

// init allocates the table at capacity n (a power of two).
func (t *cookieTable) init(n int) {
	t.keys = make([]uint64, n)
	t.vals = make([]slotVal, n)
	t.mask = uint64(n - 1)
}

// ceiling resolves the growth cap.
func (t *cookieTable) ceiling() int {
	if t.maxSlots < minTableSlots {
		return minTableSlots
	}
	return t.maxSlots
}

// grow doubles the table, re-inserting every entry. Reports false at the
// growth ceiling. Caller holds the shard write-lock.
func (t *cookieTable) grow() bool {
	n := len(t.keys) * 2
	if n > t.ceiling() {
		return false
	}
	oldKeys, oldVals := t.keys, t.vals
	t.init(n)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := slotHash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
	return true
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
