package core

import (
	"fmt"
	"math/bits"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Topology describes the inter-cluster interconnection of a
// multiple-cluster CFM (§3.3: "the multiple-cluster connection scheme
// can be used to extend the CFM architecture for constructing
// multiprocessors with various scales, connectivity, and topologies.
// These include hypercube, 2-D mesh, etc.").
type Topology interface {
	// Clusters returns the number of clusters connected.
	Clusters() int
	// Hops returns the routing distance between two clusters (0 for
	// a == b).
	Hops(a, b int) int
	// String names the topology.
	String() string
}

// FullyConnected links every cluster pair directly.
type FullyConnected struct{ N int }

// Clusters implements Topology.
func (f FullyConnected) Clusters() int { return f.N }

// Hops implements Topology.
func (f FullyConnected) Hops(a, b int) int {
	checkClusterPair(f, a, b)
	if a == b {
		return 0
	}
	return 1
}

// String implements Topology.
func (f FullyConnected) String() string { return fmt.Sprintf("fully-connected(%d)", f.N) }

// Ring links clusters in a cycle.
type Ring struct{ N int }

// Clusters implements Topology.
func (r Ring) Clusters() int { return r.N }

// Hops implements Topology.
func (r Ring) Hops(a, b int) int {
	checkClusterPair(r, a, b)
	d := a - b
	if d < 0 {
		d = -d
	}
	if r.N-d < d {
		d = r.N - d
	}
	return d
}

// String implements Topology.
func (r Ring) String() string { return fmt.Sprintf("ring(%d)", r.N) }

// Mesh2D arranges clusters in a Rows × Cols grid with Manhattan routing.
type Mesh2D struct{ Rows, Cols int }

// Clusters implements Topology.
func (m Mesh2D) Clusters() int { return m.Rows * m.Cols }

// Hops implements Topology.
func (m Mesh2D) Hops(a, b int) int {
	checkClusterPair(m, a, b)
	ar, ac := a/m.Cols, a%m.Cols
	br, bc := b/m.Cols, b%m.Cols
	return abs(ar-br) + abs(ac-bc)
}

// String implements Topology.
func (m Mesh2D) String() string { return fmt.Sprintf("mesh(%dx%d)", m.Rows, m.Cols) }

// Hypercube links 2^Dim clusters along dimension edges.
type Hypercube struct{ Dim int }

// Clusters implements Topology.
func (h Hypercube) Clusters() int { return 1 << h.Dim }

// Hops implements Topology.
func (h Hypercube) Hops(a, b int) int {
	checkClusterPair(h, a, b)
	return bits.OnesCount(uint(a ^ b))
}

// String implements Topology.
func (h Hypercube) String() string { return fmt.Sprintf("hypercube(%d)", h.Dim) }

func checkClusterPair(t Topology, a, b int) {
	if a < 0 || a >= t.Clusters() || b < 0 || b >= t.Clusters() {
		panic(fmt.Sprintf("core: clusters %d,%d out of range [0,%d)", a, b, t.Clusters()))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Diameter returns the topology's maximum hop count.
func Diameter(t Topology) int {
	d := 0
	for a := 0; a < t.Clusters(); a++ {
		for b := 0; b < t.Clusters(); b++ {
			if h := t.Hops(a, b); h > d {
				d = h
			}
		}
	}
	return d
}

// MeanHops returns the average hop count over distinct cluster pairs.
func MeanHops(t Topology) float64 {
	n := t.Clusters()
	if n < 2 {
		return 0
	}
	sum, cnt := 0, 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				sum += t.Hops(a, b)
				cnt++
			}
		}
	}
	return float64(sum) / float64(cnt)
}

// SetTopology installs an inter-cluster topology on a ClusterSystem: the
// one-way delay of a remote access from cluster a to cluster b becomes
// Hops(a,b) × perHopDelay instead of the flat construction-time delay.
// The topology's cluster count must match the system's.
func (cs *ClusterSystem) SetTopology(t Topology, perHopDelay int) {
	if t.Clusters() != len(cs.clusters) {
		panic(fmt.Sprintf("core: topology has %d clusters, system has %d", t.Clusters(), len(cs.clusters)))
	}
	if perHopDelay < 0 {
		panic(fmt.Sprintf("core: negative per-hop delay %d", perHopDelay))
	}
	cs.topo = t
	cs.perHop = perHopDelay
}

// linkDelayBetween returns the one-way request delay between clusters.
func (cs *ClusterSystem) linkDelayBetween(from, to int) int {
	if cs.topo == nil {
		return cs.linkDelay
	}
	return cs.topo.Hops(from, to) * cs.perHop
}

// RemoteReadFrom issues a read from a processor in fromCluster against
// toCluster's memory, paying the topology's routing distance both ways.
func (cs *ClusterSystem) RemoteReadFrom(t sim.Slot, fromCluster, toCluster, offset int, done func(memory.Block, sim.Slot)) {
	d := cs.linkDelayBetween(fromCluster, toCluster)
	cs.id.Wake()
	cs.queues[toCluster].Push(&remoteReq{
		kind: ReadBlock, offset: offset,
		arrive: t + sim.Slot(d), replyTo: done, replyDelay: d,
	})
}
