// Package graph provides μLayer's NN intermediate representation: a DAG of
// layers with a single input, plus the structural analyses the runtime
// needs — topological ordering, shape inference, and the fork-join
// branch-group detection that drives branch distribution (§5).
package graph

import (
	"fmt"

	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// NodeID identifies a node within its graph.
type NodeID int

// Node is one layer instance in the DAG.
type Node struct {
	ID     NodeID
	Layer  nn.Layer
	Inputs []NodeID
}

// Graph is an immutable NN DAG built by a Builder.
type Graph struct {
	Name      string
	nodes     []*Node
	consumers [][]NodeID
	input     NodeID
	output    NodeID
}

// Builder incrementally constructs a Graph.
type Builder struct {
	name  string
	nodes []*Node
	input NodeID
	built bool
	err   error
}

// NewBuilder starts a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, input: -1}
}

// Input declares the single input node with the given shape and returns
// its ID. It must be called exactly once, before any Add.
func (b *Builder) Input(shape tensor.Shape) NodeID {
	if b.input >= 0 {
		b.fail("graph %q: multiple inputs", b.name)
		return b.input
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, &Node{ID: id, Layer: &nn.Input{LayerName: "input", Shape: shape}})
	b.input = id
	return id
}

// Add appends a layer consuming the given inputs and returns the new
// node's ID.
func (b *Builder) Add(layer nn.Layer, inputs ...NodeID) NodeID {
	if b.input < 0 {
		b.fail("graph %q: Add before Input", b.name)
		return -1
	}
	for _, in := range inputs {
		if int(in) < 0 || int(in) >= len(b.nodes) {
			b.fail("graph %q: layer %q references unknown node %d", b.name, layer.Name(), in)
			return -1
		}
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, &Node{ID: id, Layer: layer, Inputs: append([]NodeID(nil), inputs...)})
	return id
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Build finalizes the graph with the given node as its output.
func (b *Builder) Build(output NodeID) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.built {
		return nil, fmt.Errorf("graph %q: Build called twice", b.name)
	}
	if b.input < 0 {
		return nil, fmt.Errorf("graph %q: no input", b.name)
	}
	if int(output) < 0 || int(output) >= len(b.nodes) {
		return nil, fmt.Errorf("graph %q: unknown output node %d", b.name, output)
	}
	b.built = true
	g := &Graph{Name: b.name, nodes: b.nodes, input: b.input, output: output}
	g.consumers = make([][]NodeID, len(b.nodes))
	for _, n := range b.nodes {
		for _, in := range n.Inputs {
			g.consumers[in] = append(g.consumers[in], n.ID)
		}
	}
	if _, err := g.Toposort(); err != nil {
		return nil, err
	}
	return g, nil
}

// Len returns the number of nodes (including the input pseudo-node).
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Input returns the input node's ID.
func (g *Graph) Input() NodeID { return g.input }

// Output returns the output node's ID.
func (g *Graph) Output() NodeID { return g.output }

// Consumers returns the IDs of the nodes that consume id's output.
func (g *Graph) Consumers(id NodeID) []NodeID { return g.consumers[id] }

// Toposort returns the node IDs in a topological order (inputs before
// consumers). Builders only create forward references in Add, but the sort
// also serves as validation and yields the canonical execution order.
func (g *Graph) Toposort() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.ID] = len(n.Inputs)
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	order := make([]NodeID, 0, len(g.nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, c := range g.consumers[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("graph %q: cycle or unreachable nodes", g.Name)
	}
	return order, nil
}

// InferShapes propagates shapes from the input node and returns the output
// shape of every node.
func (g *Graph) InferShapes() (map[NodeID]tensor.Shape, error) {
	order, err := g.Toposort()
	if err != nil {
		return nil, err
	}
	shapes := make(map[NodeID]tensor.Shape, len(g.nodes))
	for _, id := range order {
		n := g.nodes[id]
		ins := make([]tensor.Shape, len(n.Inputs))
		for i, inID := range n.Inputs {
			ins[i] = shapes[inID]
		}
		s, err := n.Layer.OutShape(ins)
		if err != nil {
			return nil, fmt.Errorf("graph %q node %d: %w", g.Name, id, err)
		}
		shapes[id] = s
	}
	return shapes, nil
}

// InputShapes returns the input shapes of node id given the per-node
// output shapes from InferShapes.
func (g *Graph) InputShapes(id NodeID, shapes map[NodeID]tensor.Shape) []tensor.Shape {
	n := g.nodes[id]
	ins := make([]tensor.Shape, len(n.Inputs))
	for i, inID := range n.Inputs {
		ins[i] = shapes[inID]
	}
	return ins
}

// TotalCost sums the per-layer costs over the whole graph.
func (g *Graph) TotalCost() (nn.Cost, error) {
	shapes, err := g.InferShapes()
	if err != nil {
		return nn.Cost{}, err
	}
	var total nn.Cost
	for _, n := range g.nodes {
		total = total.Add(n.Layer.Cost(g.InputShapes(n.ID, shapes)))
	}
	return total, nil
}

// BranchGroup is a fork-join region: every branch is a simple chain of
// layers reading (transitively) from Fork and feeding the single Join
// node. GoogLeNet's Inception modules fork four ways into a Concat;
// SqueezeNet's Fire modules fork two ways (Figure 11).
type BranchGroup struct {
	Fork     NodeID     // the node whose output all branches consume
	Join     NodeID     // the node where the branches reconverge
	Branches [][]NodeID // per-branch layer chains, fork-exclusive, join-exclusive
}

// Members returns the set of all nodes inside the group's branches.
func (bg BranchGroup) Members() map[NodeID]bool {
	m := make(map[NodeID]bool)
	for _, br := range bg.Branches {
		for _, id := range br {
			m[id] = true
		}
	}
	return m
}

// BranchGroups detects the fork-join regions eligible for branch
// distribution. A fork qualifies when every one of its ≥2 consumers starts
// a simple chain (each node has exactly one input and one consumer) that
// terminates at one shared multi-input join node.
func (g *Graph) BranchGroups() []BranchGroup {
	var groups []BranchGroup
	order, err := g.Toposort()
	if err != nil {
		return nil
	}
	for _, id := range order {
		cons := g.consumers[id]
		if len(cons) < 2 {
			continue
		}
		var join NodeID = -1
		branches := make([][]NodeID, 0, len(cons))
		ok := true
		for _, start := range cons {
			chain, end := g.walkChain(start)
			if end < 0 {
				ok = false
				break
			}
			if join < 0 {
				join = end
			} else if join != end {
				ok = false
				break
			}
			branches = append(branches, chain)
		}
		if !ok || join < 0 {
			continue
		}
		// The join must consume exactly the branch ends and nothing else,
		// so that it becomes ready the moment the branches complete.
		if len(g.nodes[join].Inputs) != len(branches) {
			continue
		}
		groups = append(groups, BranchGroup{Fork: id, Join: join, Branches: branches})
	}
	return groups
}

// walkChain follows a simple chain starting at id: nodes with one input
// and one consumer. It returns the chain (possibly several nodes) and the
// multi-input node that terminates it, or end = -1 when the structure is
// not a simple chain into a join.
func (g *Graph) walkChain(id NodeID) (chain []NodeID, end NodeID) {
	cur := id
	for {
		n := g.nodes[cur]
		if len(n.Inputs) > 1 {
			// Reached a join without traversing any chain nodes is fine:
			// the branch is then empty — not supported, treat as failure
			// unless we already collected nodes.
			if len(chain) == 0 {
				return nil, -1
			}
			return chain, cur
		}
		chain = append(chain, cur)
		cons := g.consumers[cur]
		if len(cons) != 1 {
			return nil, -1 // dead end or nested fork: not a simple chain
		}
		next := g.nodes[cons[0]]
		if len(next.Inputs) > 1 {
			return chain, next.ID
		}
		cur = cons[0]
	}
}
