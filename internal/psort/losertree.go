package psort

import "math"

// LoserTree is the int64 k-way merge kernel behind MergeK and
// ParallelMergeK: a tournament tree whose leaves are the heads of the
// sorted runs and whose internal nodes hold the loser of the match
// played there, so replacing the overall winner costs exactly
// ceil(log2 k) comparisons. This is the classic structure of the GNU
// parallel-mode multiway merge the paper builds on.
//
// Three choices keep the replay to one load and one compare per level:
//
//   - each node stores its loser's key beside the run index, so a match
//     compares the climbing key against the node itself instead of
//     chasing the loser's run for its head;
//   - runs are tracked by a cursor per leaf; emitting an element bumps
//     one int instead of rewriting a slice header;
//   - an exhausted run (and every padding leaf up to the power of two)
//     holds math.MaxInt64 as its head, so no match checks liveness. The
//     drain stops after exactly the input's element count. Equal int64
//     keys are indistinguishable, so the tree needs no tie-break by run
//     index either: if a live math.MaxInt64 ties a sentinel, the value
//     emitted is the same whichever side wins.
//
// The drain is adaptive (MergeIntoBatched): after gallopMin consecutive
// wins by one run it gallops the winner's run against the runner-up —
// the smallest key on the winner's leaf-to-root path, since every other
// run lost its last match on that path — and bulk-copies the prefix.
//
// MergeK keeps the tree state in fixed arrays on the stack for up to
// ltStackFanIn runs, so a merge allocates nothing.
type LoserTree struct {
	runs  [][]int64 // runs[i]: leaf i's run; padding leaves are empty
	pos   []int     // pos[i]: cursor of leaf i's head within runs[i]
	nodes []ltNode  // nodes[j], j >= 1: loser of match j; nodes[0]: winner
	left  int       // elements not yet emitted
}

// ltNode is one tree slot: a run's current head key and its leaf index.
type ltNode struct {
	key int64
	run int
}

// ltStackFanIn is the largest fan-in MergeK serves from stack arrays.
const ltStackFanIn = 64

// NewLoserTree builds a tree over the given sorted runs. Empty runs are
// allowed and immediately count as exhausted. The runs themselves are
// read, never modified; the tree keeps its own cursors.
func NewLoserTree(runs [][]int64) *LoserTree {
	k := leafCount(len(runs))
	lt := makeLoserTree(runs, make([][]int64, k), make([]int, k), make([]ltNode, k))
	return &lt
}

// leafCount is the power-of-two leaf count for n runs (at least 1).
func leafCount(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k
}

// makeLoserTree builds a tree over runs whose state lives in leaves,
// pos and nodes (each of length leafCount(len(runs))), and plays the
// initial tournament. Returning the tree by value lets MergeK keep it,
// and the arrays behind it, on the stack.
func makeLoserTree(runs, leaves [][]int64, pos []int, nodes []ltNode) LoserTree {
	copy(leaves, runs)
	clear(leaves[len(runs):])
	clear(pos)
	lt := LoserTree{runs: leaves, pos: pos, nodes: nodes}
	for _, r := range runs {
		lt.left += len(r)
	}
	key, run := lt.build(1)
	lt.nodes[0] = ltNode{key, run}
	return lt
}

// head reports leaf i's current head; exhausted leaves hold the
// sentinel math.MaxInt64.
func (lt *LoserTree) head(i int) int64 {
	if p, r := lt.pos[i], lt.runs[i]; p < len(r) {
		return r[p]
	}
	return math.MaxInt64
}

// build plays the tournament of the subtree rooted at node j, records
// each match's loser, and returns the subtree's winner.
func (lt *LoserTree) build(j int) (key int64, run int) {
	k := len(lt.nodes)
	if j >= k {
		return lt.head(j - k), j - k
	}
	lk, lr := lt.build(2 * j)
	rk, rr := lt.build(2*j + 1)
	if rk < lk {
		lt.nodes[j] = ltNode{lk, lr}
		return rk, rr
	}
	lt.nodes[j] = ltNode{rk, rr}
	return lk, lr
}

// advance moves leaf w's cursor past m emitted elements and replays its
// new head from leaf to root, returning the new overall winner. A
// sentinel leaf may be advanced past its end (it won a tie at
// math.MaxInt64); it keeps reading as the sentinel.
func (lt *LoserTree) advance(w, m int) ltNode {
	p := lt.pos[w] + m
	lt.pos[w] = p
	v := int64(math.MaxInt64)
	if r := lt.runs[w]; p < len(r) {
		v = r[p]
	}
	// Each match is a conditional swap then an unconditional store, a
	// shape the compiler turns into conditional moves. On interleaved
	// runs a branch here mispredicts on about half the matches; the
	// branch-free replay merges 8 random runs more than twice as fast.
	nodes := lt.nodes
	for j := (len(nodes) + w) >> 1; j > 0; j >>= 1 {
		n := &nodes[j]
		nk, nw := n.key, n.run
		if nk < v {
			nk, v = v, nk
			nw, w = w, nw
		}
		n.key, n.run = nk, nw
	}
	return ltNode{v, w}
}

// runnerUp reports the smallest head among the runs other than the
// winner w. Every other run lost exactly one match, and the best of
// them can only have lost to w itself, so it sits on w's leaf-to-root
// path. It is math.MaxInt64 when every other run is exhausted.
func (lt *LoserTree) runnerUp(w int) int64 {
	ru := int64(math.MaxInt64)
	for j := (len(lt.nodes) + w) >> 1; j > 0; j >>= 1 {
		ru = min(ru, lt.nodes[j].key)
	}
	return ru
}

// Empty reports whether every element has been emitted.
func (lt *LoserTree) Empty() bool { return lt.left == 0 }

// Pop removes and returns the smallest head element. Calling Pop on an
// empty tree panics.
func (lt *LoserTree) Pop() int64 {
	if lt.left == 0 {
		panic("psort: Pop from empty LoserTree")
	}
	lt.left--
	win := lt.nodes[0]
	lt.nodes[0] = lt.advance(win.run, 1)
	return win.key
}

// MergeInto drains the tree into dst one element at a time and reports
// the number of elements written. dst must be large enough for all
// remaining elements. It is the reference drain; MergeIntoBatched is the
// fast path and produces identical output.
func (lt *LoserTree) MergeInto(dst []int64) int {
	n := 0
	for !lt.Empty() {
		dst[n] = lt.Pop()
		n++
	}
	return n
}

// MergeIntoBatched drains the tree into dst in adaptive batches and
// reports the number of elements written. It emits per element (one
// replay each, same as MergeInto) until a single run wins gallopMin
// times in a row, then switches to batch mode: find the prefix of the
// winning run that does not exceed the runner-up's head with a
// galloping search, bulk-copy it, and replay the tree once for the
// whole streak. Short batches drop back to per-element mode. On runs
// with any locality (pre-sorted blocks, few-unique keys, skewed ranges)
// this collapses most of the comparison work into memmove; on fully
// interleaved runs it costs one streak counter over MergeInto.
func (lt *LoserTree) MergeIntoBatched(dst []int64) int {
	total := lt.left
	dst = dst[:total]
	win := lt.nodes[0]
	lastW, streak := -1, 0
	galloping := false
	for n := 0; n < total; {
		w := win.run
		if !galloping {
			if w == lastW {
				streak++
			} else {
				lastW, streak = w, 1
			}
			if streak < gallopMin {
				dst[n] = win.key
				n++
				win = lt.advance(w, 1)
				continue
			}
			galloping = true
		}
		if win.key == math.MaxInt64 {
			// Every remaining element is MaxInt64, and a sentinel may
			// already have been emitted in place of one of them.
			for i := n; i < total; i++ {
				dst[i] = math.MaxInt64
			}
			break
		}
		// The winner is live and its head never exceeds the runner-up,
		// so m >= 1. No sentinel has been emitted yet (that needs a
		// MaxInt64 winner), so the live runs hold exactly total-n
		// elements and the batch fits.
		run := lt.runs[w][lt.pos[w]:]
		m := gallopLE(run, lt.runnerUp(w))
		copy(dst[n:], run[:m])
		n += m
		win = lt.advance(w, m)
		if m < gallopMin {
			galloping = false
			lastW, streak = -1, 0
		}
	}
	lt.nodes[0] = win
	lt.left = 0
	return total
}

// MergeK merges the given sorted runs into dst using a loser tree; dst must
// have exactly the combined length. For k==1 it degenerates to a copy and
// for k==2 to the branch-predictable two-way merge. It allocates nothing
// for up to ltStackFanIn runs.
func MergeK(dst []int64, runs ...[]int64) {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if len(dst) != total {
		panic("psort: MergeK destination length mismatch")
	}
	switch len(runs) {
	case 0:
		return
	case 1:
		copy(dst, runs[0])
		return
	case 2:
		Merge2(dst, runs[0], runs[1])
		return
	}
	k := leafCount(len(runs))
	if k > ltStackFanIn {
		NewLoserTree(runs).MergeIntoBatched(dst)
		return
	}
	var (
		leaves [ltStackFanIn][]int64
		pos    [ltStackFanIn]int
		nodes  [ltStackFanIn]ltNode
	)
	lt := makeLoserTree(runs, leaves[:k], pos[:k], nodes[:k])
	lt.MergeIntoBatched(dst)
}
