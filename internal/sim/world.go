// Package sim implements the synchronous collaborative-exploration model of
// the paper (§2): k robots start at the root of a hidden rooted tree; in each
// round every robot traverses one incident edge or stays; traversing a
// dangling edge reveals its far endpoint.
//
// The package enforces the online model by construction: algorithms interact
// with a *View, which only exposes explored structure and dangling-edge
// counts. Traversal of dangling edges goes through a per-round reservation
// API that also enforces Claim 2 of the paper (no two robots traverse the
// same dangling edge in the round it is first explored).
package sim

import (
	"context"
	"errors"
	"fmt"

	"bfdn/internal/slotindex"
	"bfdn/internal/tree"
)

// MoveKind enumerates the possible per-round robot actions.
type MoveKind int

// The move kinds. Stay corresponds to the paper's ⊥ selection.
const (
	Stay    MoveKind = iota + 1
	Up               // traverse the edge to the parent
	Down             // traverse the edge to an already-explored child (Move.Child)
	Explore          // traverse a reserved dangling edge (Move.Ticket)
)

// Move is one robot's action for the round.
type Move struct {
	Kind   MoveKind
	Child  tree.NodeID // Down: the explored child to move to
	Ticket Ticket      // Explore: reservation obtained from View.ReserveDangling
}

// Ticket is an opaque handle for a reserved dangling edge. Algorithms cannot
// see which hidden node the edge leads to.
type Ticket struct {
	from  tree.NodeID
	child tree.NodeID
	round int
}

// From reports the explored endpoint of the reserved dangling edge.
func (t Ticket) From() tree.NodeID { return t.from }

// ExploreEvent records the discovery of one node, reported by Apply so that
// complete-communication algorithms can maintain incremental indices.
type ExploreEvent struct {
	Parent tree.NodeID
	Child  tree.NodeID
	Robot  int
	// NewDangling is the number of dangling edges at the discovered child,
	// i.e. its number of hidden children.
	NewDangling int
	// ParentDangling is the number of dangling edges remaining at Parent
	// right after this discovery. Events of a round are ordered, so a
	// consumer watching for a node's last dangling edge can test this field
	// instead of re-probing the view: exactly one event per closed parent
	// carries 0. It is derived state — checkpoint restore recomputes it from
	// the world rather than persisting it.
	ParentDangling int
}

// World is the hidden environment: the offline tree plus the mutable
// exploration state. Test and benchmark harnesses hold a *World; algorithms
// hold only the *View obtained from View().
//
// Per-node mutable state is flattened onto the CSR node indexing (DESIGN.md
// S31) as three parallel arrays, split by access frequency. dangling is the
// hot word: it doubles as the explored flag (-1 unexplored, ≥ 0 remaining
// dangling edges), and every explored-check, dangling probe and failed
// reservation attempt — the dominant load sites of a BFDN run — touch only
// this 4-byte-per-node array, which fits in L2 even for 100k-node trees.
// The explored-children cursor of the CSR child range is derived, not
// stored: dangling edges are handed out in port order, so the explored
// children of v are exactly Children(v)[:NumChildren(v)-dangling].
//
// res holds the cold reservation words, touched only when a reservation is
// actually claimable. They implement per-round dangling reservation by
// stamping: a count is live only while its stamp equals stampBase+round,
// so neither rounds nor Reset/Restore ever sweep the table. The stamp is
// int64 on every platform: a narrower stamp would silently truncate the
// comparison once the round counter passes its range, re-issuing
// already-reserved dangling edges (the PR 5 int32 regression, pinned by
// TestReservationSurvivesLargeRound).
type World struct {
	t *tree.Tree
	k int

	pos           []tree.NodeID
	exploredCount int
	dangling      []int32
	res           []resWord
	// stampBase offsets the reservation stamps from the round counter:
	// the stamp for the current round is stampBase+round. Reset and Restore
	// advance stampBase past every stamp the previous run could have
	// written, which is what lets them skip clearing the res table — any
	// stale word compares as "not this round". The zero value is valid
	// too: a zeroed resWord reads as stamp 0, count 0, and a zero count
	// is exactly what an unstamped node reports.
	stampBase int64

	round   int
	metrics Metrics
	view    *View
	// evBuf is the reusable explore-event buffer returned by Apply; it is
	// valid until the next Apply call (no caller retains events across
	// rounds), so steady-state rounds allocate nothing.
	evBuf []ExploreEvent
	// slots indexes the dangling counts by the tree's post-order rank,
	// which is the DFS slot order of the explored tree (DESIGN.md S31):
	// built on the first View.OpenSlots or OpenSlot of a run, then kept
	// current by Apply. Runs that never ask pay one flag check per
	// explore event.
	slots     slotindex.Index
	slotsLive bool
}

// NewWorld creates a world with k robots at the root of t. The root starts
// explored; all its edges are dangling.
func NewWorld(t *tree.Tree, k int) (*World, error) {
	if k < 1 {
		return nil, fmt.Errorf("sim: need at least one robot, got %d", k)
	}
	w := &World{
		t:             t,
		k:             k,
		pos:           make([]tree.NodeID, k),
		exploredCount: 1,
		dangling:      make([]int32, t.N()),
		res:           make([]resWord, t.N()),
		metrics:       newMetrics(k),
	}
	for i := range w.dangling {
		w.dangling[i] = -1
	}
	w.dangling[tree.Root] = int32(t.NumChildren(tree.Root))
	w.metrics.DiscoveredEdges = t.NumChildren(tree.Root)
	w.view = &View{w: w}
	return w, nil
}

// Reset re-initializes w to the start state of a fresh NewWorld(t, k) —
// k robots at the root of t, only the root explored — while reusing the
// world's allocations wherever capacities allow. A run on a Reset world is
// indistinguishable from a run on a new world; the sweep engine
// (internal/sweep) relies on this to recycle one world per worker across
// thousands of points. The *View returned by View() remains valid across
// Resets.
func (w *World) Reset(t *tree.Tree, k int) error {
	if k < 1 {
		return fmt.Errorf("sim: need at least one robot, got %d", k)
	}
	n := t.N()
	w.t = t
	w.k = k
	w.pos = grow(w.pos, k)
	for i := range w.pos {
		w.pos[i] = tree.Root
	}
	w.dangling = grow(w.dangling, n)
	w.res = grow(w.res, n)
	// Advance the stamp base past every stamp the previous run wrote
	// (all ≤ stampBase+round), instead of sweeping the res table.
	w.stampBase += int64(w.round) + 1
	for i := 0; i < n; i++ {
		w.dangling[i] = -1
	}
	w.dangling[tree.Root] = int32(t.NumChildren(tree.Root))
	w.exploredCount = 1
	w.round = 0
	if !w.slotsLive {
		// The run that just ended never asked for slots: let a world that
		// has moved on to other algorithms drop the index, and keep it
		// only for a run that follows one that used it.
		w.slots = slotindex.Index{}
	}
	w.slotsLive = false
	w.metrics.reset(k)
	w.metrics.DiscoveredEdges = t.NumChildren(tree.Root)
	if w.view == nil {
		w.view = &View{w: w}
	}
	return nil
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers re-initialize.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// K reports the number of robots.
func (w *World) K() int { return w.k }

// Round reports the index of the round currently being decided (0-based).
func (w *World) Round() int { return w.round }

// View returns the online view handed to algorithms.
func (w *World) View() *View { return w.view }

// FullyExplored reports whether every node has been explored.
func (w *World) FullyExplored() bool { return w.exploredCount == w.t.N() }

// AllAtRoot reports whether every robot is at the root.
func (w *World) AllAtRoot() bool {
	for _, p := range w.pos {
		if p != tree.Root {
			return false
		}
	}
	return true
}

// Metrics returns a copy of the accumulated metrics.
func (w *World) Metrics() Metrics { return w.metrics.clone() }

// Moves reports the total edge traversals over all robots so far; with
// Round and ExploredCount it is the progress a RoundHook can stream without
// copying the metrics.
func (w *World) Moves() int64 { return w.metrics.Moves }

// ExploredCount reports the number of explored nodes.
func (w *World) ExploredCount() int { return w.exploredCount }

// explored reports whether v has been explored.
func (w *World) explored(v tree.NodeID) bool { return w.dangling[v] >= 0 }

// nextKid reports the number of explored children of an explored node v
// (the CSR child-range cursor, derived from the dangling count).
func (w *World) nextKid(v tree.NodeID) int {
	return w.t.NumChildren(v) - int(w.dangling[v])
}

// danglingAt reports the number of dangling edges at v (v must be explored).
func (w *World) danglingAt(v tree.NodeID) int {
	return int(w.dangling[v])
}

// openSlots returns the DFS-slot index, building it from the dangling
// counts on the first call of a run.
func (w *World) openSlots() *slotindex.Index {
	if !w.slotsLive {
		t, dangling := w.t, w.dangling
		w.slots.Build(t.N(), func(r int) int32 { return max(dangling[t.AtRank(r)], 0) })
		w.slotsLive = true
	}
	return &w.slots
}

// resWord is one node's reservation state: the stamp (stampBase+round at
// the time of the claim) and the number of dangling edges handed out under
// that stamp, in one 16-byte word so a claim touches a single cache line
// of reservation state.
type resWord struct {
	stamp int64
	count int32
	_     int32
}

func (w *World) reservedThisRound(v tree.NodeID) int {
	if w.res[v].stamp != w.stampBase+int64(w.round) {
		return 0
	}
	return int(w.res[v].count)
}

// reserveDangling reserves the next dangling edge at v for this round. The
// fail-fast path — unexplored node, or no dangling edge at all — reads only
// the hot dangling word; the reservation stamp table is touched only when
// a claim is possible.
func (w *World) reserveDangling(v tree.NodeID) (Ticket, bool) {
	d := w.dangling[v]
	if d <= 0 {
		// Unexplored (-1) or no dangling edge at all (0).
		return Ticket{}, false
	}
	stamp := w.stampBase + int64(w.round)
	rs := &w.res[v]
	rc := int32(0)
	if rs.stamp == stamp {
		rc = rs.count
		if rc >= d {
			return Ticket{}, false
		}
	} else {
		rs.stamp = stamp
	}
	children := w.t.Children(v)
	child := children[len(children)-int(d)+int(rc)]
	rs.count = rc + 1
	return Ticket{from: v, child: child, round: w.round}, true
}

// Apply executes one synchronous round. moves must contain exactly one move
// per robot. It returns the explore events of the round and whether any robot
// changed position. The returned slice is only valid until the next Apply
// call (the buffer is reused). Errors indicate illegal moves (algorithm bugs)
// and leave the world in an unspecified state.
func (w *World) Apply(moves []Move) ([]ExploreEvent, bool, error) {
	if len(moves) != w.k {
		return nil, false, fmt.Errorf("sim: round %d: got %d moves for %d robots", w.round, len(moves), w.k)
	}
	events := w.evBuf[:0]
	anyMoved := false
	anyStill := false
	// Hoist the hot fields: the loop body runs once per robot per round and
	// every indirection through w costs a dependent load.
	t, pos, dangling := w.t, w.pos, w.dangling
	for i := range moves {
		m := &moves[i]
		from := pos[i]
		switch m.Kind {
		case Stay:
			anyStill = true
		case Up:
			if from == tree.Root {
				return nil, false, fmt.Errorf("sim: round %d: robot %d moves up from root", w.round, i)
			}
			pos[i] = t.Parent(from)
			w.metrics.addMove(i)
			anyMoved = true
		case Down:
			if m.Child < 0 || int(m.Child) >= t.N() || t.Parent(m.Child) != from {
				return nil, false, fmt.Errorf("sim: round %d: robot %d: %d is not a child of %d", w.round, i, m.Child, from)
			}
			if dangling[m.Child] < 0 {
				return nil, false, fmt.Errorf("sim: round %d: robot %d: Down to unexplored child %d", w.round, i, m.Child)
			}
			pos[i] = m.Child
			w.metrics.addMove(i)
			anyMoved = true
		case Explore:
			tk := m.Ticket
			if tk.round != w.round {
				return nil, false, fmt.Errorf("sim: round %d: robot %d: stale ticket from round %d", w.round, i, tk.round)
			}
			if tk.from != from {
				return nil, false, fmt.Errorf("sim: round %d: robot %d at %d uses ticket issued at %d", w.round, i, from, tk.from)
			}
			if dangling[tk.child] >= 0 {
				// The ticket was issued this round (checked above), so the
				// edge was dangling when the round started: another robot
				// sharing the ticket discovered it first. Co-traversal of a
				// dangling edge by a group is legal in the model (CTE relies
				// on it); only the first robot triggers the explore event.
				pos[i] = tk.child
				w.metrics.addMove(i)
				anyMoved = true
				continue
			}
			nc := t.NumChildren(tk.child)
			dangling[tk.child] = int32(nc)
			w.exploredCount++
			dangling[from]--
			pos[i] = tk.child
			w.metrics.addMove(i)
			w.metrics.EdgeExplorations++
			w.metrics.DiscoveredEdges += nc
			if w.slotsLive {
				w.slots.Add(t.Rank(from), -1)
				w.slots.Add(t.Rank(tk.child), int32(nc))
			}
			events = append(events, ExploreEvent{
				Parent:         from,
				Child:          tk.child,
				Robot:          i,
				NewDangling:    nc,
				ParentDangling: int(dangling[from]),
			})
			anyMoved = true
		default:
			return nil, false, fmt.Errorf("sim: round %d: robot %d: invalid move kind %d", w.round, i, m.Kind)
		}
	}
	w.round++
	w.metrics.TotalRounds++
	if anyMoved {
		w.metrics.Rounds++
		if anyStill {
			w.metrics.StillRobotRounds++
		}
	}
	w.evBuf = events[:0]
	return events, anyMoved, nil
}

// Algorithm is a complete-communication collaborative exploration algorithm:
// once per round it maps the current online view to one move per robot.
// Implementations receive explore events from the previous round so they can
// maintain incremental state.
type Algorithm interface {
	SelectMoves(v *View, prev []ExploreEvent) ([]Move, error)
}

// Result summarizes a completed run.
type Result struct {
	Metrics
	FullyExplored bool
	AllAtRoot     bool
}

// ErrRoundLimit is returned by Run when the algorithm exceeds the safety cap.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// RoundHook is called by the run loop after each committed round with the
// round's moves, its explore events (valid until the next round) and
// whether any robot moved. It decides when the run ends: done stops it with
// the world's Result, and an error aborts it and is returned as is. A nil
// hook ends the run at the first round in which no robot moves — the
// termination condition of Algorithm 1. Hooks run on the simulating
// goroutine, so they must be fast; they may read the world but must not
// step it.
type RoundHook func(moves []Move, events []ExploreEvent, moved bool) (done bool, err error)

// Run drives the algorithm until a round in which no robot moves (the
// termination condition of Algorithm 1) or until maxRounds rounds have
// elapsed. maxRounds ≤ 0 selects the cap 3·D·n + 2·D + 4 implied by the
// paper's termination argument.
func Run(w *World, a Algorithm, maxRounds int64) (Result, error) {
	return RunContext(context.Background(), w, a, maxRounds, nil, nil)
}

// RunContext is Run with cancellation, pending events and a round hook.
// The context is checked once per round before the algorithm is consulted,
// so an abandoned run stops burning CPU within one round; on cancellation it
// returns the context's error (wrapped; test with errors.Is) and a zero
// Result, leaving the world mid-run in a consistent state. events seeds the
// first SelectMoves call: nil for a fresh run, or the pending explore
// events returned by RestoreCheckpoint when continuing a restored world
// (DESIGN.md S30; the round counter then continues from where the
// checkpoint left off, against the same absolute maxRounds cap). hook ends
// the run (nil: at the first still round).
func RunContext(ctx context.Context, w *World, a Algorithm, maxRounds int64, events []ExploreEvent, hook RoundHook) (Result, error) {
	return run(ctx, w, a, maxRounds, events, hook, nil)
}

// RunRecycledContext is RunContext for engine callers that recycle worlds
// and results (internal/sweep): the returned Result's MovesPerRobot is
// written into movesPerRobot — which must have length K() — instead of a
// freshly allocated clone, so a steady-state sweep point allocates nothing
// for its report. The caller owns the buffer; handing out arena-carved
// slices keeps per-point results independent.
func RunRecycledContext(ctx context.Context, w *World, a Algorithm, maxRounds int64, movesPerRobot []int64) (Result, error) {
	return run(ctx, w, a, maxRounds, nil, nil, movesPerRobot)
}

// SaveEvery returns the checkpointing hook of a resumable run (DESIGN.md
// S30): after each block of every committed rounds (every > 0) it hands
// save an EncodeCheckpoint buffer of w and a, and a save error aborts the
// run. It ends the run at the first still round.
func SaveEvery(w *World, a Algorithm, every int, save func([]byte) error) RoundHook {
	return func(_ []Move, events []ExploreEvent, moved bool) (bool, error) {
		if !moved || w.round%every != 0 {
			return !moved, nil
		}
		state, err := EncodeCheckpoint(w, a, events)
		if err == nil {
			if err = save(state); err != nil {
				err = fmt.Errorf("sim: checkpoint at round %d: %w", w.round, err)
			}
		}
		return false, err
	}
}

// run is the one loop that steps a World.
func run(ctx context.Context, w *World, a Algorithm, maxRounds int64, events []ExploreEvent, hook RoundHook, movesPerRobot []int64) (Result, error) {
	if maxRounds <= 0 {
		n, d := int64(w.t.N()), int64(w.t.Depth())
		maxRounds = 3*n*d + 2*d + 4
	}
	for int64(w.round) < maxRounds {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("sim: canceled at round %d: %w", w.round, err)
		}
		moves, err := a.SelectMoves(w.view, events)
		if err != nil {
			return Result{}, fmt.Errorf("sim: round %d: %w", w.round, err)
		}
		ev, anyMoved, err := w.Apply(moves)
		if err != nil {
			return Result{}, err
		}
		events = ev
		done := !anyMoved
		if hook != nil {
			if done, err = hook(moves, ev, anyMoved); err != nil {
				return Result{}, err
			}
		}
		if done {
			res := Result{
				Metrics:       w.metrics,
				FullyExplored: w.FullyExplored(),
				AllAtRoot:     w.AllAtRoot(),
			}
			if movesPerRobot == nil {
				movesPerRobot = make([]int64, w.k)
			}
			copy(movesPerRobot, w.metrics.MovesPerRobot)
			res.Metrics.MovesPerRobot = movesPerRobot
			return res, nil
		}
	}
	return Result{}, fmt.Errorf("%w (%d rounds, %s)", ErrRoundLimit, maxRounds, w.t)
}
