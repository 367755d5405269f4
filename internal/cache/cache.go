// Package cache implements a set-associative, write-back/write-allocate
// timing cache with a bounded number of MSHRs. It is the cache substrate for
// the paper's full-system-style case studies (§IV): gem5's cache hierarchy
// is what sits between the cores and the DRAM controllers there, and its
// blocking behaviour (finite MSHRs) is what closes the feedback loop between
// memory latency and request arrival that traces cannot capture.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config shapes one cache instance.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Assoc is the set associativity.
	Assoc int
	// LineBytes is the cache line size.
	LineBytes uint64
	// HitLatency is the lookup/response latency.
	HitLatency sim.Tick
	// MSHRs bounds outstanding misses; when exhausted the cache refuses
	// requests (back pressure toward the core).
	MSHRs int
	// WriteBufferDepth is meant to bound queued writebacks. Validate
	// requires it positive, but nothing enforces it yet: the writeback
	// queue is unbounded (ROADMAP open item 7: enforce or delete).
	WriteBufferDepth int
	// Prefetch selects the prefetcher (extension; see prefetch.go).
	Prefetch PrefetchPolicy
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.LineBytes == 0:
		return fmt.Errorf("cache: zero size or line")
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity must be positive")
	case c.SizeBytes%(c.LineBytes*uint64(c.Assoc)) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size", c.SizeBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("cache: negative hit latency")
	case c.MSHRs <= 0:
		return fmt.Errorf("cache: MSHRs must be positive")
	case c.WriteBufferDepth <= 0:
		return fmt.Errorf("cache: write buffer depth must be positive")
	case c.Prefetch != PrefetchNone && c.MSHRs < 2:
		return fmt.Errorf("cache: prefetching needs at least 2 MSHRs")
	}
	switch c.Prefetch {
	case PrefetchNone, PrefetchNextLine, PrefetchStride:
	default:
		return fmt.Errorf("cache: unknown prefetch policy %d", c.Prefetch)
	}
	return nil
}

// A tag word is one way of the tag store: the tag in the low bits and three
// flags above it. New refuses a geometry whose tags could reach tagPrefetched.
const (
	tagValid = 1 << 63
	tagDirty = 1 << 62
	// tagPrefetched marks lines brought in by the prefetcher and not yet
	// touched by demand traffic (for accuracy accounting).
	tagPrefetched = 1 << 61
)

// mshr is one slot of the MSHR file: an outstanding line fill and the
// requests waiting on it. waiters keeps its backing array across uses.
type mshr struct {
	waiters []*mem.Packet
	issued  sim.Tick
	// fill is the line-sized read sent downstream.
	fill *mem.Packet
	// prefetch marks speculative fills with no demand waiter yet.
	prefetch bool
}

// Cache is a single cache level with a CPU-side response port and a
// memory-side request port.
type Cache struct {
	name string
	cfg  Config
	k    *sim.Kernel

	cpuPort *mem.ResponsePort
	memPort *mem.RequestPort

	// tags is the tag store, indexed set*Assoc + way: an 8-way set's tag
	// words are one 64-byte run. Each set keeps its words in recency order,
	// the most recently used first and invalid ways last, so LRU needs no
	// other state: a hit moves its word to the front, and a fill shifts the
	// set down one word over its last way, the victim.
	tags     []uint64
	setMask  uint64
	lineBits uint // log2(LineBytes)
	setBits  uint // log2(sets): the tag starts above these bits of the line number

	// pool recycles the packets this cache creates: a fill (demand or
	// prefetch) is released once installed or its poison handed to the
	// waiters, a writeback when its WriteResp returns.
	pool mem.PacketPool
	// mshrs is the MSHR file: cfg.MSHRs slots, the first mshrsInUse live
	// (in no particular order: a retired slot swaps with the last live one).
	// mshrLines[i] is the line slot i fetches, so a lookup scans only it.
	mshrs      []mshr
	mshrLines  []mem.Addr
	mshrsInUse int
	// strides tracks per-requestor stride detection state; only
	// PrefetchStride makes it, on its first miss.
	strides map[int]strideState
	// wbQueue holds fills and writebacks awaiting the memory port (ticks
	// unused). It is not bounded: see Config.WriteBufferDepth.
	wbQueue    mem.PacketQueue
	memBlocked bool

	// resp sends the responses toward the core, each HitLatency after its
	// hit or its fill.
	resp     mem.SendQueue
	retryReq bool

	st cacheStats
}

type cacheStats struct {
	hits, misses     *stats.Scalar
	readHits         *stats.Scalar
	writeHits        *stats.Scalar
	writebacks       *stats.Scalar
	mshrMerges       *stats.Scalar
	evictions        *stats.Scalar
	missLatency      *stats.Average
	blockedOnMSHRs   *stats.Scalar
	prefetches       *stats.Scalar
	usefulPrefetches *stats.Scalar
	poisonedFills    *stats.Scalar
}

// New builds a cache registering statistics under name.
func New(k *sim.Kernel, cfg Config, reg *stats.Registry, name string) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Assoc)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", numSets)
	}
	lineBits, setBits := uint(bits.TrailingZeros64(cfg.LineBytes)), uint(bits.TrailingZeros64(numSets))
	if lineBits+setBits < 3 {
		return nil, fmt.Errorf("cache: %d-byte lines in %d sets leave tags of %d bits, which overlap the 3 flag bits of a tag word (need line bytes x sets >= 8)",
			cfg.LineBytes, numSets, 64-lineBits-setBits)
	}
	ways := numSets * uint64(cfg.Assoc)
	c := &Cache{
		name:      name,
		cfg:       cfg,
		k:         k,
		tags:      make([]uint64, ways),
		setMask:   numSets - 1,
		lineBits:  lineBits,
		setBits:   setBits,
		mshrs:     make([]mshr, cfg.MSHRs),
		mshrLines: make([]mem.Addr, cfg.MSHRs),
	}
	// A slot a demand miss claims holds at least that one waiter: every
	// slot starts with room for one, carved from one array.
	room := make([]*mem.Packet, cfg.MSHRs)
	for i := range c.mshrs {
		c.mshrs[i].waiters = room[i : i : i+1]
	}
	// Room for every MSHR's fill plus the writeback its install evicts.
	c.wbQueue.Reserve(2 * cfg.MSHRs)
	c.cpuPort = mem.NewResponsePort(name+".cpu", (*cacheCPUSide)(c), k)
	c.memPort = mem.NewRequestPort(name+".mem", (*cacheMemSide)(c), k)
	c.resp.Init(k, name+".resp", 2*cfg.MSHRs, (*cacheCPUSide)(c))
	r := reg.Child(name)
	c.st = cacheStats{
		hits:             r.NewScalar("hits", "demand hits"),
		misses:           r.NewScalar("misses", "demand misses"),
		readHits:         r.NewScalar("readHits", "read hits"),
		writeHits:        r.NewScalar("writeHits", "write hits"),
		writebacks:       r.NewScalar("writebacks", "dirty lines written back"),
		mshrMerges:       r.NewScalar("mshrMerges", "misses merged into in-flight fills"),
		evictions:        r.NewScalar("evictions", "lines evicted"),
		missLatency:      r.NewAverage("missLatency", "miss (fill) latency (ns)"),
		blockedOnMSHRs:   r.NewScalar("blockedOnMSHRs", "requests refused with MSHRs full"),
		prefetches:       r.NewScalar("prefetches", "prefetch fills issued"),
		usefulPrefetches: r.NewScalar("usefulPrefetches", "prefetched lines used by demand"),
		poisonedFills:    r.NewScalar("poisonedFills", "fills returned with an uncorrectable-error poison flag"),
	}
	return c, nil
}

// CPUPort returns the core-facing response port.
func (c *Cache) CPUPort() *mem.ResponsePort { return c.cpuPort }

// MemPort returns the memory-facing request port.
func (c *Cache) MemPort() *mem.RequestPort { return c.memPort }

// Name returns the instance name.
func (c *Cache) Name() string { return c.name }

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	total := c.st.hits.Value() + c.st.misses.Value()
	if total == 0 {
		return 0
	}
	return c.st.hits.Value() / total
}

// AvgMissLatencyNs returns the mean fill latency — the "L2 miss latency"
// metric of the paper's Figure 8.
func (c *Cache) AvgMissLatencyNs() float64 { return c.st.missLatency.Mean() }

// Misses returns the demand miss count.
func (c *Cache) Misses() uint64 { return uint64(c.st.misses.Value()) }

// Quiescent reports whether no fills or queued work are outstanding.
func (c *Cache) Quiescent() bool {
	return c.mshrsInUse == 0 && c.wbQueue.Len() == 0 && c.resp.Len() == 0
}

func (c *Cache) indexOf(lineAddr mem.Addr) (set uint64, tag uint64) {
	l := uint64(lineAddr) >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

// ways returns the tag words of one set, most recently used first.
func (c *Cache) ways(set uint64) []uint64 {
	a := uint64(c.cfg.Assoc)
	return c.tags[set*a : (set+1)*a]
}

// lookup returns the index into tags of the valid way holding tag in set,
// or -1. The flags other than valid do not take part in the compare.
func (c *Cache) lookup(set, tag uint64) int {
	want := tag | tagValid
	for i, w := range c.ways(set) {
		if w&^(tagDirty|tagPrefetched) == want {
			return int(set)*c.cfg.Assoc + i
		}
	}
	return -1
}

// touch makes the way at index i the most recently used of set: its word
// moves to the front of the set, the words before it one place down. It
// returns the word's new index.
func (c *Cache) touch(set uint64, i int) int {
	base := int(set) * c.cfg.Assoc
	w := c.tags[i]
	copy(c.tags[base+1:i+1], c.tags[base:i])
	c.tags[base] = w
	return base
}

// findMSHR returns the live slot tracking lineAddr, or -1.
func (c *Cache) findMSHR(lineAddr mem.Addr) int {
	for i, a := range c.mshrLines[:c.mshrsInUse] {
		if a == lineAddr {
			return i
		}
	}
	return -1
}

// allocMSHR claims the next free slot for fill; the caller has checked that
// one is free.
func (c *Cache) allocMSHR(fill *mem.Packet, prefetch bool) *mshr {
	m := &c.mshrs[c.mshrsInUse]
	c.mshrLines[c.mshrsInUse] = fill.Addr
	c.mshrsInUse++
	m.issued, m.fill, m.prefetch = c.k.Now(), fill, prefetch
	m.waiters = m.waiters[:0]
	return m
}

// freeMSHR retires live slot i and returns it; its contents (the waiters
// included) stay readable until the next allocMSHR.
func (c *Cache) freeMSHR(i int) *mshr {
	c.mshrsInUse--
	last := c.mshrsInUse
	c.mshrs[i], c.mshrs[last] = c.mshrs[last], c.mshrs[i]
	c.mshrLines[i], c.mshrLines[last] = c.mshrLines[last], c.mshrLines[i]
	return &c.mshrs[last]
}
