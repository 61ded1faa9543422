package cluster

import (
	"fmt"
	"testing"
)

func testMap(t *testing.T, n int) Map {
	t.Helper()
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{
			ID: fmt.Sprintf("s%02d", i),
			Nodes: []Node{
				{ID: fmt.Sprintf("s%02d-p", i), URL: fmt.Sprintf("http://10.0.%d.1:7600", i)},
				{ID: fmt.Sprintf("s%02d-f", i), URL: fmt.Sprintf("http://10.0.%d.2:7600", i)},
			},
		}
	}
	m, err := BuildMap(shards)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	return m
}

// testKeys is a deterministic estimator-name corpus: realistic short names,
// numeric suffixes, and a few long ones. Deterministic input keeps the
// balance bound a property, not a flake.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			keys[i] = fmt.Sprintf("orders_%d", i)
		case 1:
			keys[i] = fmt.Sprintf("tenant-%d.lineitem", i)
		case 2:
			keys[i] = fmt.Sprintf("est%06d", i)
		default:
			keys[i] = fmt.Sprintf("warehouse/%d/shipments/selectivity", i)
		}
	}
	return keys
}

// TestRingBalance pins the distribution property the DefaultVnodes comment
// advertises: at 128 vnodes, every shard's share of a large key corpus is
// within ±35% of the ideal 1/shards share, for cluster sizes 2..8. (The
// expected spread at 128 vnodes is ~±10–20%; the asserted bound leaves
// headroom so the test documents a guarantee, not a lucky sample.)
func TestRingBalance(t *testing.T) {
	const nKeys = 20000
	keys := testKeys(nKeys)
	for _, nShards := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			r, err := NewRing(testMap(t, nShards), DefaultVnodes)
			if err != nil {
				t.Fatalf("NewRing: %v", err)
			}
			counts := map[string]int{}
			for _, k := range keys {
				counts[r.Owner(k)]++
			}
			if len(counts) != nShards {
				t.Fatalf("only %d of %d shards own keys: %v", len(counts), nShards, counts)
			}
			mean := float64(nKeys) / float64(nShards)
			for shard, c := range counts {
				ratio := float64(c) / mean
				if ratio < 0.65 || ratio > 1.35 {
					t.Errorf("shard %s owns %d keys (%.2fx mean); want within [0.65, 1.35]x; all: %v",
						shard, c, ratio, counts)
				}
			}
		})
	}
}

// TestRingMinimalMovementOnAdd pins consistent hashing's defining property:
// growing the cluster by one shard moves keys ONLY onto the new shard —
// no key changes owner between two pre-existing shards — and the moved
// fraction is near the ideal 1/(n+1).
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const nKeys = 20000
	keys := testKeys(nKeys)
	for _, nShards := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			before, err := NewRing(testMap(t, nShards), DefaultVnodes)
			if err != nil {
				t.Fatalf("NewRing(before): %v", err)
			}
			// testMap(n+1) is testMap(n) plus shard s<n> — IDs are stable.
			after, err := NewRing(testMap(t, nShards+1), DefaultVnodes)
			if err != nil {
				t.Fatalf("NewRing(after): %v", err)
			}
			newShard := fmt.Sprintf("s%02d", nShards)
			moved := 0
			for _, k := range keys {
				a, b := before.Owner(k), after.Owner(k)
				if a == b {
					continue
				}
				moved++
				if b != newShard {
					t.Fatalf("key %q moved %s -> %s, but only moves onto the new shard %s are allowed",
						k, a, b, newShard)
				}
			}
			ideal := float64(nKeys) / float64(nShards+1)
			if f := float64(moved); f < 0.5*ideal || f > 1.6*ideal {
				t.Errorf("add moved %d keys; want near ideal %.0f (0.5x..1.6x)", moved, ideal)
			}
		})
	}
}

// TestRingMinimalMovementOnRemove is the inverse property: removing a shard
// moves only the keys it owned; every key owned by a surviving shard stays
// put.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	const nKeys = 20000
	keys := testKeys(nKeys)
	for _, nShards := range []int{3, 5} {
		for removed := 0; removed < nShards; removed++ {
			t.Run(fmt.Sprintf("shards=%d/remove=s%02d", nShards, removed), func(t *testing.T) {
				full := testMap(t, nShards)
				before, err := NewRing(full, DefaultVnodes)
				if err != nil {
					t.Fatalf("NewRing(before): %v", err)
				}
				removedID := fmt.Sprintf("s%02d", removed)
				var rest []Shard
				for _, sh := range full.Shards {
					if sh.ID != removedID {
						rest = append(rest, sh)
					}
				}
				sub, err := BuildMap(rest)
				if err != nil {
					t.Fatalf("BuildMap(rest): %v", err)
				}
				after, err := NewRing(sub, DefaultVnodes)
				if err != nil {
					t.Fatalf("NewRing(after): %v", err)
				}
				for _, k := range keys {
					a, b := before.Owner(k), after.Owner(k)
					if a == removedID {
						if b == removedID {
							t.Fatalf("key %q still owned by removed shard %s", k, removedID)
						}
						continue
					}
					if a != b {
						t.Fatalf("key %q owned by surviving shard %s moved to %s on removal of %s",
							k, a, b, removedID)
					}
				}
			})
		}
	}
}

// TestRingDeterminism: same map + vnodes on two independently built rings
// (shards supplied in different orders) yields identical versions and
// identical placement — the property a fleet of routers relies on.
func TestRingDeterminism(t *testing.T) {
	m1 := testMap(t, 4)
	// Same shards, reversed input order.
	rev := make([]Shard, len(m1.Shards))
	for i, sh := range m1.Shards {
		rev[len(rev)-1-i] = sh
	}
	m2, err := BuildMap(rev)
	if err != nil {
		t.Fatalf("BuildMap(rev): %v", err)
	}
	if m1.Version != m2.Version {
		t.Fatalf("map versions differ for identical shard sets: %d vs %d", m1.Version, m2.Version)
	}
	r1, _ := NewRing(m1, DefaultVnodes)
	r2, _ := NewRing(m2, DefaultVnodes)
	if r1.Version() != r2.Version() {
		t.Fatalf("ring versions differ: %d vs %d", r1.Version(), r2.Version())
	}
	for _, k := range testKeys(5000) {
		if a, b := r1.Owner(k), r2.Owner(k); a != b {
			t.Fatalf("placement differs for %q: %s vs %s", k, a, b)
		}
	}
	// Different vnode counts must yield different ring versions even on the
	// same map, so version comparison catches a misconfigured router.
	r3, _ := NewRing(m1, 64)
	if r3.Version() == r1.Version() {
		t.Fatal("ring version ignores vnode count")
	}
}

func TestBuildMapValidation(t *testing.T) {
	cases := []struct {
		name   string
		shards []Shard
	}{
		{"empty", nil},
		{"empty id", []Shard{{ID: "", Nodes: []Node{{URL: "http://a"}}}}},
		{"slash id", []Shard{{ID: "a/b", Nodes: []Node{{URL: "http://a"}}}}},
		{"dup id", []Shard{
			{ID: "s0", Nodes: []Node{{URL: "http://a"}}},
			{ID: "s0", Nodes: []Node{{URL: "http://b"}}},
		}},
		{"no nodes", []Shard{{ID: "s0"}}},
		{"bad url", []Shard{{ID: "s0", Nodes: []Node{{URL: "10.0.0.1:7600"}}}}},
	}
	for _, tc := range cases {
		if _, err := BuildMap(tc.shards); err == nil {
			t.Errorf("%s: BuildMap accepted invalid input", tc.name)
		}
	}
	m, err := BuildMap([]Shard{{ID: "s0", Nodes: []Node{{URL: "http://a:1/"}}}})
	if err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	if got := m.Shards[0].Nodes[0].ID; got != "s0/0" {
		t.Errorf("defaulted node ID = %q, want s0/0", got)
	}
	if got := m.Shards[0].Nodes[0].URL; got != "http://a:1" {
		t.Errorf("URL not trimmed: %q", got)
	}
}

// TestRingPlacementPinned freezes placement for a fixed key set: the
// hash behind Owner is shared with trace sampling (obs.HashString), and any
// change to it would silently move every estimator in a deployed cluster.
// The expected owners and versions are the placement deployed clusters use.
func TestRingPlacementPinned(t *testing.T) {
	m := testMap(t, 3)
	r, err := NewRing(m, DefaultVnodes)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	if m.Version != 0xcf2ace46ac03e8c8 || r.Version() != 0x233da773dd70e1b3 {
		t.Fatalf("map version %016x, ring version %016x: placement function changed", m.Version, r.Version())
	}
	for _, c := range []struct{ key, owner string }{
		{"orders", "s01"},
		{"lineitem", "s02"},
		{"people", "s01"},
		{"dmv", "s02"},
		{"est000001", "s00"},
		{"tenant-7.lineitem", "s01"},
		{"warehouse/3/shipments/selectivity", "s01"},
		{"a", "s01"},
		{"", "s00"},
		{"orders_2024", "s00"},
	} {
		if got := r.Owner(c.key); got != c.owner {
			t.Errorf("Owner(%q) = %s, want %s", c.key, got, c.owner)
		}
	}
}
