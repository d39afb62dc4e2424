package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"paccel/internal/bits"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// ErrCookieCollision is returned by Dial when PeerSpec.ExpectInCookie is
// already routed to a live connection. Cookies are 62-bit random values,
// so a collision between honestly drawn cookies is vanishingly unlikely —
// but pre-agreed cookies are chosen by the application, and silently
// rebinding one would hijack the existing connection's traffic.
var ErrCookieCollision = errors.New("core: cookie already bound to another connection")

// cookieShardCount is the number of router shards for the cookie table.
// 64 shards keep receive-path lookups for different connections on
// different locks (and mostly different cache lines) on any realistic
// core count.
const cookieShardCount = 64

// cookieShard is one slice of the cookie→conn table: an open-addressed,
// cache-line-packed cookieTable (table.go) behind a read-write lock.
// Shards are padded to two cache lines so two cores routing through
// neighbouring shards do not false-share.
type cookieShard struct {
	mu  sync.RWMutex
	tab cookieTable
	_   [32]byte // pad to 128 bytes
}

// shardIndex spreads cookies over the shards. Cookies are uniform random
// 62-bit values already, but pre-agreed cookies may be small integers, so
// mix with the 64-bit golden ratio before taking the top bits.
func shardIndex(cookie uint64) uint64 {
	return (cookie * 0x9E3779B97F4A7C15) >> 58
}

// Endpoint is one host attachment: it owns the transport, the router that
// demultiplexes incoming datagrams to Protocol Accelerators (by cookie in
// the normal case, by connection identification otherwise — §2.2), and
// the connections themselves.
//
// Concurrency model: the receive path is lock-light so that concurrent
// receives for different connections never serialize on the endpoint.
// Cookie lookups take one shard read-lock, identification lookups one
// table read-lock, and the router counters are atomics. All routing-table
// *writes* (Dial, connection teardown, cookie learning) additionally
// serialize on routeMu, which keeps the per-connection cookie
// bookkeeping consistent without ever blocking readers of other shards.
type Endpoint struct {
	cfg Config

	// batch is the transport's vectorized send interface, asserted once
	// at construction; nil when the transport only sends one datagram at
	// a time and the flush paths must loop.
	batch BatchTransport

	// batchTo is the transport's scattered-destination send interface
	// (one sendmmsg with per-header sockaddrs), asserted once at
	// construction; nil when fanout bursts must loop per destination.
	batchTo BatchToTransport

	// mq is the transport's multi-queue receive interface (SO_REUSEPORT
	// sharding), asserted once at construction; nil for single-queue
	// transports.
	mq MultiQueueTransport

	// coalescer is the transport's send-offload interface (UDP_SEGMENT
	// super-datagrams), asserted once at construction. The flush path
	// shapes the tx queue into equal-size runs only while it reports
	// Coalescible.
	coalescer Coalescer

	closed atomic.Bool
	// draining refuses new sends while Shutdown runs down the deferred
	// work (see supervise.go).
	draining atomic.Bool

	// routeMu serializes routing-table writers; it is never taken on
	// the pure lookup path.
	routeMu sync.Mutex
	conns   map[*Conn]struct{}

	// Cookie-TTL garbage collection (Config.CookieTTL): gcEpoch advances
	// on every sweep; lookups stamp it into the entry they route through.
	// gcTimer is guarded by routeMu.
	gcOn    bool
	gcEpoch atomic.Uint64
	gcTimer vclock.Timer

	identMu sync.RWMutex
	byIdent map[string]*Conn

	shards [cookieShardCount]cookieShard

	// plan is the compiled shape of this endpoint's stack (plan.go),
	// shared by every connection of that shape. It is never nil after
	// NewEndpoint; a dial that finds its stack has another shape stores
	// the plan it compiled instead.
	plan atomic.Pointer[plan]

	// template parses identifications of unknown connections; identSize
	// is the uniform ConnID header size of this endpoint's stack shape.
	// Both come from the first plan's stack and never change.
	template  Identifier
	identSize int

	// connSeq numbers connections in dial order; it assigns each
	// connection's telemetry shard and seeds the recovery engine's
	// jitter (recovery.go).
	connSeq atomic.Uint64

	// tel records router-level telemetry events; nil disables.
	tel *telemetry.Recorder

	stats endpointCounters

	// Overload protection (DESIGN.md §14). maxConns is the resolved hard
	// capacity; connCount the live connections against it (atomic so the
	// admission decision never takes a lock). adm is the admission
	// machinery: shed policy, storm detector, early-drop randomness.
	maxConns  int
	connCount atomic.Int64
	adm       admissionState

	// Table memory accounting: tableEntries counts routed cookies,
	// tableSlots the slots allocated across the shard tables (never
	// shrinks), tableOverflows binds refused because a shard table hit
	// its growth ceiling. shedTotal paces the shed telemetry events;
	// admEvictions counts ShedEvictIdle victims.
	tableEntries   atomic.Int64
	tableSlots     atomic.Int64
	tableOverflows atomic.Uint64
	shedTotal      atomic.Uint64
	admEvictions   atomic.Uint64

	// Incremental GC state (all but the atomics guarded by routeMu):
	// (gcShard, gcSlot) is the sweep cursor, gcBudget the per-sweep slot
	// budget (gcSweepBudget; a field so tests can shrink it). gcMaxPause
	// is the worst observed sweep wall time in nanoseconds — the pause
	// bound made visible.
	gcShard  int
	gcSlot   int
	gcBudget int
	// maxPack bounds how many backlogged messages one packed message
	// carries (the maxPack constant; a field so tests can force one wire
	// image per message). Fixed before the first connection exists.
	maxPack    int
	gcSweeps   atomic.Uint64
	gcScanned  atomic.Uint64
	gcMaxSweep atomic.Uint64
	gcMaxPause atomic.Int64
}

// counterStripeCount is the number of counter stripes (power of two).
const counterStripeCount = 8

// counterStripe is one stripe of the router counters. Each field is an
// atomic so the receive path never takes a lock to account for a
// datagram; the stripe is padded to two full cache lines so cores
// counting through neighbouring stripes do not false-share.
type counterStripe struct {
	received         atomic.Uint64
	unknownCookie    atomic.Uint64
	unknownIdent     atomic.Uint64
	rejected         atomic.Uint64
	accepted         atomic.Uint64
	malformed        atomic.Uint64
	cookiesLearned   atomic.Uint64
	cookieCollisions atomic.Uint64
	cookiesEvicted   atomic.Uint64
	txErrors         atomic.Uint64
	batchSends       atomic.Uint64
	batchDatagrams   atomic.Uint64
	shedFull         atomic.Uint64
	shedStorm        atomic.Uint64
	shedEarlyDrop    atomic.Uint64
	_                [1]uint64 // pad to 128 bytes
}

// endpointCounters are the router-level counters, striped so concurrent
// receive goroutines (and transmit flushers) increment different cache
// lines. Snapshot sums the stripes in one pass.
type endpointCounters struct {
	stripes [counterStripeCount]counterStripe
}

// stripe selects the counter stripe for a key (a cookie shard index, a
// source-address hash, or a connection's telemetry shard).
func (s *endpointCounters) stripe(key uint64) *counterStripe {
	return &s.stripes[key&(counterStripeCount-1)]
}

// stripeKey hashes a transport source address to a counter stripe; the
// length and last byte are enough to spread distinct peers.
func stripeKey(src string) uint64 {
	if len(src) == 0 {
		return 0
	}
	return uint64(src[len(src)-1]) ^ uint64(len(src))
}

// EndpointStats is a snapshot of the router counters.
type EndpointStats struct {
	Received         uint64
	UnknownCookie    uint64 // dropped: cookie unknown, identification absent (§2.2)
	UnknownIdent     uint64 // dropped: identification matched no connection
	Rejected         uint64 // accept hook declined
	Accepted         uint64 // connections created by the accept hook
	Malformed        uint64
	CookiesLearned   uint64
	CookieCollisions uint64 // learned or pre-agreed cookie already bound elsewhere
	CookiesEvicted   uint64 // learned cookies idle past CookieTTL, removed by GC

	// Vectorized transport I/O (DESIGN.md §11). TxErrors counts
	// per-datagram transport send failures on the flush paths (batched or
	// not); the tx queue keeps draining past a failed datagram. The
	// Batch* counters measure syscall amortization: BatchSends is how
	// many SendBatch calls the flush paths issued, BatchDatagrams how
	// many datagrams those calls carried, and DatagramsPerBatch their
	// ratio. BatchRecvs/RecvDatagrams are folded in from the transport
	// when its receive path is vectorized (RecvBatcher).
	TxErrors          uint64
	BatchSends        uint64
	BatchDatagrams    uint64
	DatagramsPerBatch float64
	BatchRecvs        uint64
	RecvDatagrams     uint64

	// Multi-queue receive sharding (DESIGN.md §13). RecvQueues is the
	// transport's receive-queue count (1 for single-queue transports);
	// QueueRecvDatagrams, present only for MultiQueueTransports, is the
	// per-queue datagram count — the kernel's REUSEPORT flow-hash balance
	// made visible.
	RecvQueues         int
	QueueRecvDatagrams []uint64

	// Overload protection (DESIGN.md §14). Conns/MaxConns is the live
	// occupancy against the hard capacity. The Shed* counters break
	// refused connections down by admission decision — a shed connect is
	// never silent, it is a typed error to the caller and a count here.
	Conns              int64
	MaxConns           int
	ShedFull           uint64 // refused: table at capacity (ErrAdmissionFull)
	ShedStorm          uint64 // refused: storm rate cap (ErrAdmissionStorm)
	ShedEarlyDrop      uint64 // refused: probabilistic early drop (ErrAdmissionEarlyDrop)
	ShedTotal          uint64
	AdmissionEvictions uint64 // idle connections closed by ShedEvictIdle
	StormsDetected     uint64
	StormActive        bool

	// Routing-table memory accounting. TableEntries is the number of
	// routed cookies, TableSlots the open-addressed slots allocated
	// across the shards, TableBytes their memory (TableSlots ×
	// tableSlotBytes), TableBytesPerEntry the amortized per-connection
	// routing cost. TableOverflows counts binds refused at a shard
	// table's growth ceiling.
	TableEntries       int64
	TableSlots         int64
	TableBytes         int64
	TableBytesPerEntry float64
	TableOverflows     uint64

	// Incremental CookieTTL GC. GCSlotsScanned/GCSweeps is the average
	// sweep size; GCMaxSweepSlots the largest sweep (bounded by
	// gcSweepBudget), GCMaxPause the worst sweep wall time.
	GCSweeps        uint64
	GCSlotsScanned  uint64
	GCMaxSweepSlots uint64
	GCMaxPause      time.Duration
}

// NewEndpoint attaches a Protocol Accelerator endpoint to the transport.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	ep := &Endpoint{
		cfg:     cfg,
		conns:   make(map[*Conn]struct{}),
		byIdent: make(map[string]*Conn),
		tel:     cfg.Telemetry,
	}
	ep.batch, _ = cfg.Transport.(BatchTransport)
	ep.batchTo, _ = cfg.Transport.(BatchToTransport)
	ep.mq, _ = cfg.Transport.(MultiQueueTransport)
	ep.coalescer, _ = cfg.Transport.(Coalescer)
	ep.maxConns = cfg.maxConns()
	ep.gcBudget = gcSweepBudget
	ep.maxPack = maxPack
	ep.adm.init(cfg.Admission)
	// Each shard's table may grow to hold twice its uniform share of
	// MaxConns cookies — headroom for hash skew and the open-addressed
	// load factor — and no further; the hard capacity is connCount.
	perShard := nextPow2((ep.maxConns*2 + cookieShardCount - 1) / cookieShardCount)
	if perShard < minTableSlots {
		perShard = minTableSlots
	}
	for i := range ep.shards {
		ep.shards[i].tab.maxSlots = perShard
	}
	if err := ep.initTemplate(); err != nil {
		return nil, err
	}
	if cfg.CookieTTL > 0 {
		ep.gcOn = true
		ep.armCookieGC()
	}
	cfg.Transport.SetHandler(ep.onRecv)
	return ep, nil
}

// armCookieGC schedules the next GC sweep. The full table is covered
// twice per TTL (eviction bound: idle between TTL and 1.5×TTL), but one
// *sweep* examines at most gcSweepBudget slots — when the table
// outgrows the budget, the pass is split over proportionally more,
// proportionally closer sweeps, so the receive path never stalls behind
// a full-table scan. Caller holds routeMu (or is the constructor).
func (ep *Endpoint) armCookieGC() {
	half := ep.cfg.CookieTTL / 2
	if half <= 0 {
		half = ep.cfg.CookieTTL
	}
	iv := half
	if slots := ep.tableSlots.Load(); slots > int64(ep.gcBudget) {
		sweeps := (slots + int64(ep.gcBudget) - 1) / int64(ep.gcBudget)
		iv = half / time.Duration(sweeps)
		if iv < time.Millisecond {
			iv = time.Millisecond
		}
	}
	ep.gcTimer = ep.cfg.clock().AfterFunc(iv, ep.cookieGC)
}

// cookieGC is one incremental TTL sweep: learned-cookie bindings that no
// datagram has routed through for more than CookieTTL are evicted,
// bounding router memory under peer churn. A live peer whose binding was
// evicted recovers on its next identified message, which re-learns the
// cookie — the paper's §2.2 rule that "unusual" messages carry the
// identification makes eviction safe.
//
// The sweep resumes at the (gcShard, gcSlot) cursor and examines at most
// gcBudget slots before re-arming, so its pause is bounded regardless of
// table size. The GC epoch advances once per *pass* (cursor at origin),
// which keeps the eviction age identical to the old full-table sweep:
// an entry stamped at epoch e was last used before pass e+1; age 3
// guarantees at least two full pass intervals (one TTL) of idleness.
func (ep *Endpoint) cookieGC() {
	if ep.closed.Load() {
		return
	}
	t0 := time.Now()
	ep.routeMu.Lock()
	defer ep.routeMu.Unlock()
	if ep.closed.Load() {
		return
	}
	if ep.gcShard == 0 && ep.gcSlot == 0 {
		ep.gcEpoch.Add(1)
	}
	cur := ep.gcEpoch.Load()
	scanned := 0
	if cur >= 3 {
		for scanned < ep.gcBudget {
			sh := &ep.shards[ep.gcShard]
			sh.mu.Lock()
			n := len(sh.tab.keys)
			for ep.gcSlot < n && scanned < ep.gcBudget {
				scanned++
				k := sh.tab.keys[ep.gcSlot]
				if k != 0 {
					m := atomic.LoadUint64(&sh.tab.vals[ep.gcSlot].meta)
					if metaLearned(m) && cur-metaEpoch(m) >= 3 {
						c := sh.tab.vals[ep.gcSlot].conn
						sh.tab.delete(k)
						ep.tableEntries.Add(-1)
						dropConnCookie(c, k)
						ep.stats.stripe(shardIndex(k)).cookiesEvicted.Add(1)
						// Backward-shift deletion may have pulled a
						// later entry into this slot: re-examine it
						// (counted against the budget) before moving on.
						continue
					}
				}
				ep.gcSlot++
			}
			done := ep.gcSlot >= n
			sh.mu.Unlock()
			if !done {
				break // budget exhausted mid-shard; resume here next sweep
			}
			ep.gcSlot = 0
			ep.gcShard++
			if ep.gcShard == cookieShardCount {
				ep.gcShard = 0
				break // pass complete
			}
		}
	}
	ep.gcSweeps.Add(1)
	ep.gcScanned.Add(uint64(scanned))
	if max := ep.gcMaxSweep.Load(); uint64(scanned) > max {
		ep.gcMaxSweep.Store(uint64(scanned))
	}
	if pause := int64(time.Since(t0)); pause > ep.gcMaxPause.Load() {
		ep.gcMaxPause.Store(pause)
	}
	ep.updateLoadGauges()
	ep.armCookieGC()
}

// dropConnCookie removes one evicted cookie from its connection's
// bookkeeping (swap-remove; order is irrelevant). Caller holds routeMu.
func dropConnCookie(c *Conn, cookie uint64) {
	for i, k := range c.inCookies {
		if k == cookie {
			last := len(c.inCookies) - 1
			c.inCookies[i] = c.inCookies[last]
			c.inCookies = c.inCookies[:last]
			return
		}
	}
}

// initTemplate compiles the endpoint's first stack plan — so the first
// dial already replays — and keeps that stack's identification layer as
// the template that parses identifications of unknown connections, with
// the uniform ConnID size needed to slice them off incoming datagrams
// before any connection is known.
func (ep *Endpoint) initTemplate() error {
	p, st, err := ep.compilePlan(PeerSpec{})
	if err != nil {
		return err
	}
	ep.template = identifier(st, p.identIdx)
	ep.identSize = p.size[header.ConnID]
	ep.plan.Store(p)
	return nil
}

// Snapshot returns a consistent snapshot of the router counters: every
// stripe's atomics are summed in one pass, so each reported field is the
// complete count across stripes as of the pass.
func (ep *Endpoint) Snapshot() EndpointStats {
	var s EndpointStats
	for i := range ep.stats.stripes {
		st := &ep.stats.stripes[i]
		s.Received += st.received.Load()
		s.UnknownCookie += st.unknownCookie.Load()
		s.UnknownIdent += st.unknownIdent.Load()
		s.Rejected += st.rejected.Load()
		s.Accepted += st.accepted.Load()
		s.Malformed += st.malformed.Load()
		s.CookiesLearned += st.cookiesLearned.Load()
		s.CookieCollisions += st.cookieCollisions.Load()
		s.CookiesEvicted += st.cookiesEvicted.Load()
		s.TxErrors += st.txErrors.Load()
		s.BatchSends += st.batchSends.Load()
		s.BatchDatagrams += st.batchDatagrams.Load()
		s.ShedFull += st.shedFull.Load()
		s.ShedStorm += st.shedStorm.Load()
		s.ShedEarlyDrop += st.shedEarlyDrop.Load()
	}
	s.ShedTotal = s.ShedFull + s.ShedStorm + s.ShedEarlyDrop
	s.Conns = ep.connCount.Load()
	s.MaxConns = ep.maxConns
	s.AdmissionEvictions = ep.admEvictions.Load()
	s.StormsDetected = ep.adm.stormsDetected.Load()
	s.StormActive = ep.adm.stormOn.Load()
	s.TableEntries = ep.tableEntries.Load()
	s.TableSlots = ep.tableSlots.Load()
	s.TableBytes = s.TableSlots * tableSlotBytes
	if s.TableEntries > 0 {
		s.TableBytesPerEntry = float64(s.TableBytes) / float64(s.TableEntries)
	}
	s.TableOverflows = ep.tableOverflows.Load()
	s.GCSweeps = ep.gcSweeps.Load()
	s.GCSlotsScanned = ep.gcScanned.Load()
	s.GCMaxSweepSlots = ep.gcMaxSweep.Load()
	s.GCMaxPause = time.Duration(ep.gcMaxPause.Load())
	if s.BatchSends > 0 {
		s.DatagramsPerBatch = float64(s.BatchDatagrams) / float64(s.BatchSends)
	}
	if rb, ok := ep.cfg.Transport.(RecvBatcher); ok {
		s.BatchRecvs, s.RecvDatagrams = rb.RecvBatchStats()
	}
	s.RecvQueues = 1
	if mq := ep.mq; mq != nil {
		s.RecvQueues = mq.NumQueues()
		s.QueueRecvDatagrams = make([]uint64, s.RecvQueues)
		for i := range s.QueueRecvDatagrams {
			_, s.QueueRecvDatagrams[i] = mq.QueueRecvStats(i)
		}
	}
	return s
}

// IdentSize returns the endpoint's connection identification size (the
// paper's ~76 bytes).
func (ep *Endpoint) IdentSize() int { return ep.identSize }

// lookupCookie routes a cookie to its connection, or nil. With GC on,
// the hit refreshes the slot's epoch — one atomic store under the shard
// read-lock (slots move only under the write lock, so the pointer is
// stable while we hold it), still no exclusive lock and no clock read on
// the receive path.
func (ep *Endpoint) lookupCookie(cookie uint64) *Conn {
	sh := &ep.shards[shardIndex(cookie)]
	sh.mu.RLock()
	v := sh.tab.lookup(cookie)
	if v == nil {
		sh.mu.RUnlock()
		return nil
	}
	c := v.conn
	if ep.gcOn {
		m := atomic.LoadUint64(&v.meta)
		atomic.StoreUint64(&v.meta, metaStamp(m, ep.gcEpoch.Load()))
	}
	sh.mu.RUnlock()
	return c
}

// bindCookie records cookie→c, refusing to steal a binding from a live
// connection. learned marks a binding taken from an identified datagram,
// subject to TTL eviction; pre-agreed bindings are not. Caller holds
// routeMu. Returns nil, ErrCookieCollision (already bound elsewhere, or
// the unroutable zero cookie), or ErrAdmissionFull (shard table at its
// growth ceiling).
func (ep *Endpoint) bindCookie(cookie uint64, c *Conn, learned bool) error {
	idx := shardIndex(cookie)
	if cookie == 0 {
		// Cookie 0 is the table's empty-slot sentinel; it can never
		// route, so binding it would silently blackhole the peer.
		ep.stats.stripe(idx).cookieCollisions.Add(1)
		return ErrCookieCollision
	}
	sh := &ep.shards[idx]
	sh.mu.Lock()
	if v := sh.tab.lookup(cookie); v != nil {
		same := v.conn == c
		sh.mu.Unlock()
		if same {
			return nil
		}
		ep.stats.stripe(idx).cookieCollisions.Add(1)
		return ErrCookieCollision
	}
	before := len(sh.tab.keys)
	ok := sh.tab.insert(cookie, c, packMeta(ep.gcEpoch.Load(), learned))
	grown := len(sh.tab.keys) - before
	sh.mu.Unlock()
	if grown != 0 {
		ep.tableSlots.Add(int64(grown))
	}
	if !ok {
		ep.tableOverflows.Add(1)
		return ErrAdmissionFull
	}
	ep.tableEntries.Add(1)
	c.inCookies = append(c.inCookies, cookie)
	return nil
}

// unbindCookies removes all of c's cookie routes. Caller holds routeMu.
func (ep *Endpoint) unbindCookies(c *Conn) {
	for _, cookie := range c.inCookies {
		sh := &ep.shards[shardIndex(cookie)]
		sh.mu.Lock()
		if v := sh.tab.lookup(cookie); v != nil && v.conn == c {
			sh.tab.delete(cookie)
			ep.tableEntries.Add(-1)
		}
		sh.mu.Unlock()
	}
	c.inCookies = c.inCookies[:0]
}

// Dial creates a connection to the peer described by spec and registers
// its routes. The first outgoing message will carry the connection
// identification (unless the spec pre-agreed cookies). At
// Config.MaxConns live connections Dial refuses with ErrAdmissionFull —
// before allocating anything for the new connection — unless the
// ShedEvictIdle policy can free a slot.
func (ep *Endpoint) Dial(spec PeerSpec) (*Conn, error) {
	if ep.closed.Load() || ep.draining.Load() {
		return nil, ErrConnClosed
	}
	if ep.connCount.Load() >= int64(ep.maxConns) {
		if ep.adm.policy != ShedEvictIdle || !ep.evictIdlest() {
			return nil, ep.shed(spec.Addr, ErrAdmissionFull)
		}
	}
	c, err := newConn(ep, spec)
	if err != nil {
		return nil, err
	}
	ep.routeMu.Lock()
	if ep.closed.Load() {
		ep.routeMu.Unlock()
		c.Close()
		return nil, ErrConnClosed
	}
	// Authoritative capacity check under routeMu: concurrent dials may
	// all have passed the atomic pre-check, but only MaxConns of them
	// get a slot.
	if ep.connCount.Load() >= int64(ep.maxConns) {
		ep.routeMu.Unlock()
		c.Close()
		return nil, ep.shed(spec.Addr, ErrAdmissionFull)
	}
	if spec.ExpectInCookie != 0 {
		// Register the pre-agreed cookie first: if it is already bound
		// to a live connection, rebinding would hijack that
		// connection's traffic — refuse instead (last-writer-wins was
		// a silent correctness hole).
		if err := ep.bindCookie(spec.ExpectInCookie&CookieMask, c, false); err != nil {
			ep.routeMu.Unlock()
			c.Close()
			return nil, err
		}
	}
	ep.conns[c] = struct{}{}
	ep.connCount.Add(1)
	// Route by the identification the peer will send, in either byte
	// order — the preamble's order bit is not known in advance.
	ep.identMu.Lock()
	for i, o := range [...]bits.ByteOrder{bits.BigEndian, bits.LittleEndian} {
		key := string(c.ident.ExpectedIncoming(ep.identSize, o))
		ep.byIdent[key] = c
		c.identKeys[i] = key
	}
	ep.identMu.Unlock()
	ep.routeMu.Unlock()
	ep.updateLoadGauges()
	ep.tel.Event(telemetry.EventState, c.outCookie, "active")
	return c, nil
}

// removeConn unregisters a closed connection.
func (ep *Endpoint) removeConn(c *Conn) {
	ep.routeMu.Lock()
	defer ep.routeMu.Unlock()
	if _, ok := ep.conns[c]; ok {
		delete(ep.conns, c)
		ep.connCount.Add(-1)
	}
	// Only where the key still routes to c: a re-dial of the same
	// identification has taken it over.
	ep.identMu.Lock()
	for _, k := range c.identKeys {
		if k != "" && ep.byIdent[k] == c {
			delete(ep.byIdent, k)
		}
	}
	ep.identMu.Unlock()
	ep.unbindCookies(c)
	ep.updateLoadGauges()
}

// updateLoadGauges refreshes the occupancy gauges (three atomic stores;
// nil-safe when telemetry is off). Called where connection or table
// population changes — never on the pure receive path.
func (ep *Endpoint) updateLoadGauges() {
	if ep.tel == nil {
		return
	}
	n := ep.connCount.Load()
	ep.tel.SetGauge(telemetry.GaugeConns, n)
	ep.tel.SetGauge(telemetry.GaugeTableEntries, ep.tableEntries.Load())
	ep.tel.SetGauge(telemetry.GaugeOccupancyPct, n*100/int64(ep.maxConns))
}

// BindBenchCookies bulk-binds n synthetic cookie routes [base, base+n) to
// c, all marked learned (TTL-evictable) or not. It exists for load tests
// and the churn benchmarks, which need routing tables of realistic size
// (100k–1M entries) without holding that many live connections; traffic
// routed through a synthetic cookie is delivered to c like any other.
// It returns how many cookies were actually bound (zero or colliding
// cookies in the range are skipped, and a shard table at its ceiling
// stops that shard's binds).
func (ep *Endpoint) BindBenchCookies(c *Conn, base uint64, n int, learned bool) int {
	ep.routeMu.Lock()
	defer ep.routeMu.Unlock()
	bound := 0
	for i := 0; i < n; i++ {
		if ep.bindCookie((base+uint64(i))&CookieMask, c, learned) == nil {
			bound++
		}
	}
	ep.updateLoadGauges()
	return bound
}

// Close closes every connection and the transport.
func (ep *Endpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	ep.routeMu.Lock()
	if ep.gcTimer != nil {
		// The sweep re-arms under routeMu after re-checking closed, so
		// stopping here is race-free.
		ep.gcTimer.Stop()
		ep.gcTimer = nil
	}
	conns := make([]*Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.routeMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return ep.cfg.Transport.Close()
}

// onRecv is the router: the paper's from_network() up to connection
// lookup (Fig. 3). It runs on the transport's receive goroutine(s); the
// only locks it takes are one shard (or ident-table) read-lock, so
// receives for different connections proceed in parallel.
func (ep *Endpoint) onRecv(src string, datagram []byte) {
	if ep.closed.Load() {
		return
	}
	st := ep.stats.stripe(stripeKey(src))
	st.received.Add(1)

	pre, err := DecodePreamble(datagram)
	if err != nil {
		st.malformed.Add(1)
		return
	}
	m := message.FromWire(datagram)
	m.Order = pre.Order
	if _, err := m.Pop(PreambleSize); err != nil {
		st.malformed.Add(1)
		m.Free()
		return
	}

	var cid []byte
	var c *Conn
	if pre.ConnIDPresent {
		if cid, err = m.Pop(ep.identSize); err != nil {
			st.malformed.Add(1)
			m.Free()
			return
		}
		c = ep.lookupIdent(cid, pre, src)
		if c == nil {
			m.Free()
			return
		}
		ep.learnCookie(c, pre.Cookie)
	} else {
		c = ep.lookupCookie(pre.Cookie)
		if c == nil {
			// "When a message is received with an unknown cookie,
			// and the Connection Identification Present Bit
			// cleared, it is dropped" (§2.2).
			st.unknownCookie.Add(1)
			m.Free()
			return
		}
	}
	m.MarkPayload()
	c.deliverIncoming(m, cid, pre.Order, src)
}

// lookupIdent routes an identified message, consulting the accept hook for
// unknown identifications.
func (ep *Endpoint) lookupIdent(cid []byte, pre Preamble, src string) *Conn {
	ep.identMu.RLock()
	c := ep.byIdent[string(cid)]
	ep.identMu.RUnlock()
	if c != nil {
		return c
	}
	st := ep.stats.stripe(stripeKey(src))
	accept := ep.cfg.Accept
	if accept == nil {
		st.unknownIdent.Add(1)
		return nil
	}
	// Admission control runs before the identification is parsed, the
	// accept hook consulted, or the connection allocated: shedding a
	// connect storm costs a few atomic reads per refused datagram and
	// nothing else. The refusal is counted (Shed* stats, shed events);
	// the datagram is dropped like any unroutable one.
	if ep.admitNew(src) != nil {
		return nil
	}
	info := ep.template.ParseIncoming(cid, pre.Order)
	spec, ok := accept(info, src)
	if !ok {
		st.rejected.Add(1)
		return nil
	}
	nc, err := ep.Dial(spec)
	if err != nil {
		st.rejected.Add(1)
		return nil
	}
	st.accepted.Add(1)
	if onConn := ep.cfg.OnConn; onConn != nil {
		onConn(nc)
	}
	// The accepted spec must route the identification that created it.
	ep.identMu.RLock()
	c = ep.byIdent[string(cid)]
	ep.identMu.RUnlock()
	if c == nil {
		// Accept hook returned a mismatched spec; route explicitly so
		// the message is not lost, but flag it.
		ep.identMu.Lock()
		key := string(cid)
		ep.byIdent[key] = nc
		nc.identKeys[2] = key // slots 0 and 1 are Dial's
		ep.identMu.Unlock()
		c = nc
	}
	return c
}

// learnCookie records the peer's (incoming) cookie for cookie-only
// routing. If the cookie is already bound to a different live connection
// the existing binding wins: rebinding on the say-so of one identified
// datagram would let a latecomer hijack an established route, so the
// event is only counted (EndpointStats.CookieCollisions).
func (ep *Endpoint) learnCookie(c *Conn, cookie uint64) {
	if cookie == 0 {
		// The empty-slot sentinel can't be routed; the peer's traffic
		// stays on the identified path.
		return
	}
	// Fast path: the common re-identification (every "unusual" message
	// carries the identification) re-learns the same cookie.
	if ep.lookupCookie(cookie) == c {
		return
	}
	ep.routeMu.Lock()
	defer ep.routeMu.Unlock()
	// Re-check under the write lock; another receive may have won.
	sh := &ep.shards[shardIndex(cookie)]
	sh.mu.RLock()
	var prev *Conn
	if v := sh.tab.lookup(cookie); v != nil {
		prev = v.conn
	}
	sh.mu.RUnlock()
	if prev == c {
		return
	}
	if prev != nil {
		ep.stats.stripe(shardIndex(cookie)).cookieCollisions.Add(1)
		return
	}
	// Forget this connection's previous cookie, if any (the peer may
	// have restarted with a fresh cookie).
	ep.unbindCookies(c)
	if ep.bindCookie(cookie, c, true) == nil {
		ep.stats.stripe(shardIndex(cookie)).cookiesLearned.Add(1)
	}
	ep.updateLoadGauges()
}
