package sim

// This file is the checkpoint/restore layer of the model (DESIGN.md S30):
// a World and its algorithm serialize their mutable state between rounds,
// so a long exploration can be journaled by internal/jobstore and resumed
// after a crash. The contract mirrors Reset (S22): a restored
// (world, algorithm) pair must be indistinguishable — byte for byte in the
// rounds it goes on to produce — from the uninterrupted run, which is what
// keeps the paper's determinism guarantees (the Claim 2 reservation
// machinery included) intact across a process boundary.

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Snapshotter is the optional checkpoint interface of an Algorithm: encode
// every piece of state that influences future SelectMoves calls, in a fixed
// order, such that RestoreState on a freshly constructed instance (same
// constructor parameters, then Reset as for recycling) reproduces it
// exactly. Scratch buffers that are rebuilt from scratch each round are
// skipped; anything with cross-round memory — anchors, stacks, open-node
// counts, lazy-heap internals whose tie-breaking depends on insertion
// history — is serialized verbatim.
//
// Both methods get the world's view and the pending explore events: the
// explores of the checkpoint's last round, which the next SelectMoves
// consumes. An algorithm only ever sees the explored tree, so RestoreState
// checks every node it decodes against v, and state that is a function of
// the world (per-subtree open counts) against v with pending undone, and
// refuses a mismatch; the world is already restored and checked when it
// runs.
type Snapshotter interface {
	SnapshotState(e *snap.Encoder, v *View, pending []ExploreEvent)
	RestoreState(d *snap.Decoder, v *View, pending []ExploreEvent) error
}

// checkpointVersion tags the EncodeCheckpoint format; a mismatch on restore
// means the snapshot was written by an incompatible binary.
const checkpointVersion = 1

// Snapshot appends the world's mutable exploration state to e: positions,
// explored set, per-node explored-children cursors, the round counter and
// the full metrics. Per-round reservation state is deliberately excluded —
// checkpoints are taken between rounds, where no reservation is live (a
// Ticket never outlives the round that issued it). The explored and cursor
// arrays are materialized from the flattened dangling words (DESIGN.md
// S31), keeping the wire format identical to the pre-flattening layout.
func (w *World) Snapshot(e *snap.Encoder) {
	n := w.t.N()
	e.Int(w.k)
	e.Int(n)
	for _, p := range w.pos {
		e.Int32(int32(p))
	}
	explored := make([]bool, n)
	nextKid := make([]int32, n)
	for v := 0; v < n; v++ {
		if w.dangling[v] >= 0 {
			explored[v] = true
			nextKid[v] = int32(w.nextKid(tree.NodeID(v)))
		}
	}
	e.Bools(explored)
	e.Int(w.exploredCount)
	e.Int32s(nextKid)
	e.Int(w.round)
	e.Int(w.metrics.Rounds)
	e.Int(w.metrics.TotalRounds)
	e.Int64(w.metrics.Moves)
	e.Int64s(w.metrics.MovesPerRobot)
	e.Int(w.metrics.StillRobotRounds)
	e.Int(w.metrics.EdgeExplorations)
	e.Int(w.metrics.DiscoveredEdges)
}

// Restore reads a Snapshot back into w, which must already hold the same
// tree and robot count (NewWorld or Reset with the checkpoint's plan).
// Reservation state is cleared: every stored reservation belonged to a
// round strictly before the restored one, so none can be live. A snapshot
// whose state no run could reach — a robot off the explored tree, an
// explored node under an unexplored parent, counts that disagree with a
// recount — is refused with snap.ErrCorrupt; the world is then left in an
// unspecified state.
func (w *World) Restore(d *snap.Decoder) error {
	k, n := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != w.k || n != w.t.N() {
		return fmt.Errorf("sim: snapshot is for k=%d, n=%d; world has k=%d, n=%d", k, n, w.k, w.t.N())
	}
	for i := range w.pos {
		w.pos[i] = tree.NodeID(d.Int32())
	}
	explored := d.Bools()
	if d.Err() == nil && len(explored) != n {
		return fmt.Errorf("sim: snapshot explored set has %d nodes, want %d", len(explored), n)
	}
	w.exploredCount = d.Int()
	nextKid := d.Int32s()
	if d.Err() == nil && len(nextKid) != n {
		return fmt.Errorf("sim: snapshot cursor set has %d nodes, want %d", len(nextKid), n)
	}
	if d.Err() == nil {
		// Rebuild the flattened per-node words; every stored reservation
		// belonged to a round strictly before the restored one, so none can
		// be live. Advancing the stamp base past every stamp this world has
		// written invalidates the res table without sweeping it.
		w.stampBase += int64(w.round) + 1
		w.slotsLive = false
		for v := 0; v < n; v++ {
			d := int32(-1)
			if explored[v] {
				nc := int32(w.t.NumChildren(tree.NodeID(v)))
				if nextKid[v] < 0 || nextKid[v] > nc {
					return fmt.Errorf("sim: snapshot gives node %d %d explored children of %d: %w", v, nextKid[v], nc, snap.ErrCorrupt)
				}
				d = nc - nextKid[v]
			}
			w.dangling[v] = d
		}
	}
	w.round = d.Int()
	w.metrics.Rounds = d.Int()
	w.metrics.TotalRounds = d.Int()
	w.metrics.Moves = d.Int64()
	per := d.Int64s()
	if d.Err() == nil && len(per) != k {
		return fmt.Errorf("sim: snapshot has %d per-robot counters, want %d", len(per), k)
	}
	copy(w.metrics.MovesPerRobot, per)
	w.metrics.StillRobotRounds = d.Int()
	w.metrics.EdgeExplorations = d.Int()
	w.metrics.DiscoveredEdges = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if err := w.checkState(); err != nil {
		return fmt.Errorf("%w: %w", err, snap.ErrCorrupt)
	}
	return nil
}

// EncodeCheckpoint serializes a mid-run (world, algorithm, pending events)
// triple into one self-contained buffer. events are the explore events of
// the last committed round, which the next SelectMoves call consumes — a
// checkpoint that dropped them would desynchronize every event-driven
// algorithm. The algorithm must implement Snapshotter.
func EncodeCheckpoint(w *World, a Algorithm, events []ExploreEvent) ([]byte, error) {
	s, ok := a.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: algorithm %T does not support checkpointing", a)
	}
	var e snap.Encoder
	e.Uint64(checkpointVersion)
	w.Snapshot(&e)
	e.Int(len(events))
	for _, ev := range events {
		e.Int32(int32(ev.Parent))
		e.Int32(int32(ev.Child))
		e.Int(ev.Robot)
		e.Int(ev.NewDangling)
	}
	s.SnapshotState(&e, w.view, events)
	return e.Bytes(), nil
}

// RestoreCheckpoint reads an EncodeCheckpoint buffer back into a world and
// algorithm prepared with the checkpoint's plan (same tree, robot count and
// constructor options, freshly Reset). It returns the pending explore
// events to hand to the first SelectMoves of the resumed run. The world,
// the pending events and then the algorithm's state are each checked as
// they are read, so a corrupt checkpoint fails here, before any round runs.
func RestoreCheckpoint(state []byte, w *World, a Algorithm) ([]ExploreEvent, error) {
	s, ok := a.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: algorithm %T does not support checkpointing", a)
	}
	d := snap.NewDecoder(state)
	if v := d.Uint64(); d.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if err := w.Restore(d); err != nil {
		return nil, fmt.Errorf("sim: restore world: %w", err)
	}
	nev := d.Int()
	if d.Err() != nil || nev < 0 || nev > w.k {
		return nil, fmt.Errorf("sim: checkpoint has %d pending events for %d robots: %w", nev, w.k, snap.ErrCorrupt)
	}
	events := make([]ExploreEvent, nev)
	for i := range events {
		events[i] = ExploreEvent{
			Parent:      tree.NodeID(d.Int32()),
			Child:       tree.NodeID(d.Int32()),
			Robot:       d.Int(),
			NewDangling: d.Int(),
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	// ParentDangling is derived state and not part of the checkpoint format.
	// Checkpoints are taken between rounds, so the restored world's dangling
	// counts are the end-of-round values; replaying them per parent (events
	// are in round order, counts ascend from the final value) reproduces the
	// per-event counts Apply recorded. Each child is explored once, so no
	// two events share one. The scan is quadratic in the (≤ k) pending
	// events, which only runs once per restore.
	for i, ev := range events {
		if ev.Robot < 0 || ev.Robot >= w.k || w.pos[ev.Robot] != ev.Child || !w.view.Explored(ev.Parent) ||
			!w.view.Explored(ev.Child) || w.t.Parent(ev.Child) != ev.Parent ||
			ev.NewDangling != w.t.NumChildren(ev.Child) {
			return nil, fmt.Errorf("sim: checkpoint event %d (robot %d, %d→%d) is not an explore of this world: %w",
				i, ev.Robot, ev.Parent, ev.Child, snap.ErrCorrupt)
		}
		later := 0
		for _, e := range events[i+1:] {
			if e.Child == ev.Child {
				return nil, fmt.Errorf("sim: checkpoint events explore node %d twice: %w", ev.Child, snap.ErrCorrupt)
			}
			if e.Parent == ev.Parent {
				later++
			}
		}
		events[i].ParentDangling = w.danglingAt(ev.Parent) + later
	}
	if err := s.RestoreState(d, w.view, events); err != nil {
		return nil, fmt.Errorf("sim: restore algorithm: %w", err)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in checkpoint: %w", d.Rest(), snap.ErrCorrupt)
	}
	return events, nil
}
