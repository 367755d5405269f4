// Package stats is a small statistics framework in the spirit of gem5's:
// components register named statistics with a Registry, and the registry can
// reset and dump them at arbitrary points in simulated time. The paper leans
// on this to collect the page-hit rates, bus utilisation and
// all-banks-precharged time that feed the Micron power model offline.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Stat is anything a Registry can hold: it can describe itself, reset, and
// render its value(s).
type Stat interface {
	// Name returns the registered, dot-separated name.
	Name() string
	// Desc returns the one-line description.
	Desc() string
	// Reset clears the statistic to its initial state.
	Reset()
	// Rows renders the statistic as one or more (name, value, comment) rows.
	Rows() []Row
}

// Row is a single line in a statistics dump.
type Row struct {
	Name    string
	Value   string
	Comment string
}

// Registry holds the statistics of one component tree. Child registries
// share their root's store, so a single Dump covers the whole system.
type Registry struct {
	prefix string
	store  *store
}

// store is what a root registry and all its children share: the statistics
// in registration order, an index by full name, and the one pool scalars and
// averages are carved from. A statistic keeps its registry's prefix and its
// own leaf name and joins them only on a cold path (Name, Rows, the dumps,
// SaveState/RestoreState, panics), so registering one builds no string.
type store struct {
	stats []Stat
	// index maps the hash of a full name to the first statistic registered
	// with that hash; collide holds, by full name, every later one whose
	// distinct name has the same hash.
	index   map[uint64]int32
	collide map[string]int32
	cells   sim.Pool[cell]
}

// NewRegistry returns an empty registry; prefix (may be empty) is prepended
// to all registered names, separated by a dot.
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, store: &store{index: make(map[uint64]int32)}}
}

// Child returns a registry that shares storage with r but adds a name
// component, so sub-components can register under "parent.child.stat".
func (r *Registry) Child(name string) *Registry {
	return &Registry{prefix: join(r.prefix, name), store: r.store}
}

func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// nameHash is the 64-bit FNV-1a hash of join(prefix, leaf), computed without
// joining: nameHash(p, l) == nameHash("", join(p, l)).
func nameHash(prefix, leaf string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	if prefix != "" {
		for i := 0; i < len(prefix); i++ {
			h = (h ^ uint64(prefix[i])) * prime
		}
		h = (h ^ '.') * prime
	}
	for i := 0; i < len(leaf); i++ {
		h = (h ^ uint64(leaf[i])) * prime
	}
	return h
}

// ident is the identity every statistic kind embeds.
type ident struct {
	prefix, leaf, desc string
}

// Name implements Stat.
func (n *ident) Name() string { return join(n.prefix, n.leaf) }

// Desc implements Stat.
func (n *ident) Desc() string { return n.desc }

func (n *ident) id() *ident { return n }

// is reports whether name is n's full name, without building it.
func (n *ident) is(name string) bool {
	if n.prefix == "" {
		return name == n.leaf
	}
	p := len(n.prefix)
	return len(name) == p+1+len(n.leaf) && name[p] == '.' &&
		name[:p] == n.prefix && name[p+1:] == n.leaf
}

// identOf returns the identity of s, which this package made.
func identOf(s Stat) *ident { return s.(interface{ id() *ident }).id() }

// find returns the statistic named name, whose hash is h, or nil.
func (st *store) find(h uint64, name string) Stat {
	i, ok := st.index[h]
	if !ok {
		return nil
	}
	if s := st.stats[i]; identOf(s).is(name) {
		return s
	}
	if j, ok := st.collide[name]; ok {
		return st.stats[j]
	}
	return nil
}

// put stores s under h, the hash of its full name, unless a statistic of that
// name is already there; it returns that one, else nil. Only a taken hash
// builds the name.
func (st *store) put(h uint64, s Stat) Stat {
	pos := int32(len(st.stats))
	if _, taken := st.index[h]; !taken {
		st.index[h] = pos
	} else {
		name := s.Name()
		if prev := st.find(h, name); prev != nil {
			return prev
		}
		if st.collide == nil {
			st.collide = make(map[string]int32)
		}
		st.collide[name] = pos
	}
	st.stats = append(st.stats, s)
	return nil
}

// add registers s, panicking at the registering call if its name is taken.
func (r *Registry) add(s Stat, n *ident) {
	if r.store.put(nameHash(n.prefix, n.leaf), s) != nil {
		panic(fmt.Sprintf("stats: duplicate statistic %q", n.Name()))
	}
}

// Absorb merges every statistic registered under other's root into r's
// root, by reference. NewShardedRig uses it: each shard registers its
// components' statistics in a private registry, so hot counters are written
// by exactly one worker goroutine, and the rig absorbs the shards into the
// main registry once they are built, for one unified dump.
//
// Absorbing the same Stat instances again is a no-op, so nothing is ever
// counted or dumped twice. A name collision between *distinct* Stat
// instances is a bug and panics, like any duplicate registration.
func (r *Registry) Absorb(other *Registry) {
	for _, s := range other.store.stats {
		n := identOf(s)
		if prev := r.store.put(nameHash(n.prefix, n.leaf), s); prev != nil && prev != s {
			panic(fmt.Sprintf("stats: duplicate statistic %q absorbed", n.Name()))
		}
	}
}

// ResetAll resets every registered statistic.
func (r *Registry) ResetAll() {
	for _, s := range r.store.stats {
		s.Reset()
	}
}

// Get returns the statistic registered under the full name, or nil.
func (r *Registry) Get(name string) Stat {
	return r.store.find(nameHash("", name), name)
}

// Dump writes all statistics, sorted by name, in gem5's columnar text style.
func (r *Registry) Dump(w io.Writer) error {
	var rows []Row
	for _, s := range r.store.stats {
		rows = append(rows, s.Rows()...)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%-52s %16s  # %s\n", row.Name, row.Value, row.Comment); err != nil {
			return err
		}
	}
	return nil
}

// Scalar is a monotonically adjustable counter (int64 semantics rendered as
// an integer when whole).
type Scalar cell

// cell is the storage a Scalar (sum is its value) and an Average share. One
// pool of cells keeps a component's counters side by side in registration
// order; a pool per kind spread a fresh traffic rig's over four pages, and
// its low-load run was several per cent slower for it.
type cell struct {
	ident
	sum   float64
	count uint64
}

// NewScalar registers and returns a scalar statistic.
func (r *Registry) NewScalar(name, desc string) *Scalar {
	s := (*Scalar)(r.store.cells.Get())
	s.ident = ident{r.prefix, name, desc}
	r.add(s, &s.ident)
	return s
}

// Reset implements Stat.
func (s *Scalar) Reset() { s.sum = 0 }

// Inc adds one.
func (s *Scalar) Inc() { s.sum++ }

// Add adds v.
func (s *Scalar) Add(v float64) { s.sum += v }

// Set overwrites the value.
func (s *Scalar) Set(v float64) { s.sum = v }

// Value returns the current value.
func (s *Scalar) Value() float64 { return s.sum }

// Rows implements Stat.
func (s *Scalar) Rows() []Row {
	return []Row{{s.Name(), formatNumber(s.sum), s.desc}}
}

// Average accumulates samples and reports their arithmetic mean.
type Average cell

// NewAverage registers and returns an averaging statistic.
func (r *Registry) NewAverage(name, desc string) *Average {
	a := (*Average)(r.store.cells.Get())
	a.ident = ident{r.prefix, name, desc}
	r.add(a, &a.ident)
	return a
}

// Reset implements Stat.
func (a *Average) Reset() { a.sum, a.count = 0, 0 }

// Sample records one observation.
func (a *Average) Sample(v float64) { a.sum += v; a.count++ }

// Count returns the number of observations.
func (a *Average) Count() uint64 { return a.count }

// Sum returns the sum of observations.
func (a *Average) Sum() float64 { return a.sum }

// Mean returns the mean of observations (0 with no samples).
func (a *Average) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Rows implements Stat.
func (a *Average) Rows() []Row {
	return []Row{{a.Name(), formatNumber(a.Mean()), a.desc}}
}

func formatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
