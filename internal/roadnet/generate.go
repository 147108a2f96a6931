package roadnet

import (
	"fmt"
	"math/rand"

	"repro/internal/geo"
)

// GenerateConfig parameterises the synthetic city generator.
//
// The generator produces the classic structure of a Chinese metropolis (the
// paper's datasets are Beijing and Tianjin): a rectangular lattice of local
// streets, every k-th street upgraded to a collector or arterial, plus a
// rectangular "ring road" highway around the core. Node positions are
// jittered and a fraction of local streets is removed so the graph is
// irregular like a real map; removals that would disconnect the network are
// undone.
type GenerateConfig struct {
	BlocksX, BlocksY int     // lattice size in blocks
	BlockMeters      float64 // nominal block edge length
	ArterialEvery    int     // every n-th lattice line is an arterial
	CollectorEvery   int     // every n-th lattice line is a collector
	Jitter           float64 // node position jitter as a fraction of block size
	DropLocalProb    float64 // probability of removing a local street
	Ring             bool    // add a ring-road highway
	Seed             int64   // PRNG seed; same seed → identical network
}

// Validate checks the configuration.
func (c *GenerateConfig) Validate() error {
	if c.BlocksX < 2 || c.BlocksY < 2 {
		return fmt.Errorf("roadnet: generator needs at least 2x2 blocks, got %dx%d", c.BlocksX, c.BlocksY)
	}
	if c.BlockMeters <= 0 {
		return fmt.Errorf("roadnet: block size must be positive, got %v", c.BlockMeters)
	}
	if c.DropLocalProb < 0 || c.DropLocalProb >= 1 {
		return fmt.Errorf("roadnet: drop probability must be in [0,1), got %v", c.DropLocalProb)
	}
	if c.Jitter < 0 || c.Jitter > 0.4 {
		return fmt.Errorf("roadnet: jitter must be in [0,0.4], got %v", c.Jitter)
	}
	return nil
}

// DefaultGenerateConfig returns the medium-sized default city.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{
		BlocksX: 16, BlocksY: 12, BlockMeters: 250,
		ArterialEvery: 4, CollectorEvery: 2,
		Jitter: 0.12, DropLocalProb: 0.08,
		Ring: true, Seed: 1,
	}
}

// BCityConfig returns the large benchmark city standing in for the Beijing
// dataset (~8k directed segments).
func BCityConfig() GenerateConfig {
	return GenerateConfig{
		BlocksX: 44, BlocksY: 40, BlockMeters: 220,
		ArterialEvery: 5, CollectorEvery: 2,
		Jitter: 0.12, DropLocalProb: 0.10,
		Ring: true, Seed: 20160516,
	}
}

// TCityConfig returns the medium benchmark city standing in for the Tianjin
// dataset (~2.5k directed segments).
func TCityConfig() GenerateConfig {
	return GenerateConfig{
		BlocksX: 26, BlocksY: 22, BlockMeters: 260,
		ArterialEvery: 4, CollectorEvery: 2,
		Jitter: 0.15, DropLocalProb: 0.12,
		Ring: true, Seed: 7498298,
	}
}

// latticeEdge is a candidate street before drop/restore decisions.
type latticeEdge struct {
	a, b    int // lattice node indices
	class   RoadClass
	name    string
	dropped bool
}

// Generate builds a synthetic city network from cfg. The result is always a
// single connected component (at the road-adjacency level).
func Generate(cfg GenerateConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nx, ny := cfg.BlocksX+1, cfg.BlocksY+1
	idx := func(x, y int) int { return y*nx + x }

	positions := make([]geo.Point, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			jx := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.BlockMeters
			jy := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.BlockMeters
			positions[idx(x, y)] = geo.Pt(
				float64(x)*cfg.BlockMeters+jx,
				float64(y)*cfg.BlockMeters+jy,
			)
		}
	}

	classify := func(line int) RoadClass {
		if cfg.ArterialEvery > 0 && line%cfg.ArterialEvery == 0 {
			return Arterial
		}
		if cfg.CollectorEvery > 0 && line%cfg.CollectorEvery == 0 {
			return Collector
		}
		return Local
	}

	var edges []latticeEdge
	for y := 0; y < ny; y++ { // horizontal streets
		class := classify(y)
		for x := 0; x < nx-1; x++ {
			edges = append(edges, latticeEdge{
				a: idx(x, y), b: idx(x+1, y), class: class,
				name:    fmt.Sprintf("EW-%d/%d", y, x),
				dropped: class == Local && rng.Float64() < cfg.DropLocalProb,
			})
		}
	}
	for x := 0; x < nx; x++ { // vertical streets
		class := classify(x)
		for y := 0; y < ny-1; y++ {
			edges = append(edges, latticeEdge{
				a: idx(x, y), b: idx(x, y+1), class: class,
				name:    fmt.Sprintf("NS-%d/%d", x, y),
				dropped: class == Local && rng.Float64() < cfg.DropLocalProb,
			})
		}
	}
	if cfg.Ring {
		edges = append(edges, ringEdges(cfg, nx, ny)...)
	}

	restoreForConnectivity(edges, nx*ny)

	// Materialise only the nodes actually touched by kept edges.
	b := NewBuilder()
	nodeOf := make([]NodeID, nx*ny)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	ensureNode := func(lattice int) NodeID {
		if nodeOf[lattice] == -1 {
			nodeOf[lattice] = b.AddNode(positions[lattice])
		}
		return nodeOf[lattice]
	}
	for _, e := range edges {
		if e.dropped {
			continue
		}
		b.AddTwoWay(ensureNode(e.a), ensureNode(e.b), e.class, e.name)
	}
	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := checkConnected(n); err != nil {
		return nil, err
	}
	return n, nil
}

// ringEdges returns the highway ring placed on the lattice rectangle inset by
// 1/8th of the extent; the ring reuses lattice junctions so it connects to
// the street grid.
func ringEdges(cfg GenerateConfig, nx, ny int) []latticeEdge {
	inset := func(n int) (lo, hi int) {
		margin := n / 8
		if margin < 1 {
			margin = 1
		}
		return margin, n - 1 - margin
	}
	x0, x1 := inset(nx)
	y0, y1 := inset(ny)
	idx := func(x, y int) int { return y*nx + x }

	type xy struct{ x, y int }
	var path []xy
	for x := x0; x <= x1; x++ {
		path = append(path, xy{x, y0})
	}
	for y := y0 + 1; y <= y1; y++ {
		path = append(path, xy{x1, y})
	}
	for x := x1 - 1; x >= x0; x-- {
		path = append(path, xy{x, y1})
	}
	for y := y1 - 1; y > y0; y-- {
		path = append(path, xy{x0, y})
	}
	edges := make([]latticeEdge, 0, len(path))
	for i := range path {
		a, c := path[i], path[(i+1)%len(path)]
		edges = append(edges, latticeEdge{
			a: idx(a.x, a.y), b: idx(c.x, c.y),
			class: Highway, name: fmt.Sprintf("Ring-%d", i),
		})
	}
	return edges
}

// restoreForConnectivity un-drops edges that bridge otherwise-disconnected
// components, using union-find over lattice nodes. Node-level connectivity
// implies road-adjacency-level connectivity because roads meeting at a node
// are adjacent.
func restoreForConnectivity(edges []latticeEdge, numNodes int) {
	parent := make([]int, numNodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return false
		}
		parent[ra] = rb
		return true
	}
	for i := range edges {
		if !edges[i].dropped {
			union(edges[i].a, edges[i].b)
		}
	}
	for i := range edges {
		if edges[i].dropped && find(edges[i].a) != find(edges[i].b) {
			edges[i].dropped = false
			union(edges[i].a, edges[i].b)
		}
	}
}

// checkConnected verifies the road-level adjacency graph is one component.
func checkConnected(n *Network) error {
	dist := n.Hops([]RoadID{0}, -1)
	for id, d := range dist {
		if d == -1 {
			return fmt.Errorf("roadnet: generated network is disconnected (road %d unreachable)", id)
		}
	}
	return nil
}
