// Conservative-window parallel intra-run simulation (Config.Shards).
//
// The torus splits into an R×C grid of rectangular tiles (TileGrid
// auto-factors the count into near-square tiles; ShardRows/ShardCols
// pin the shape); each tile owns its nodes' processors, caches,
// cache/directory controllers and switches, all scheduled on the tile's
// own calendar-queue kernel. Tiles advance in lockstep lookahead
// windows of the network's minimum hop latency (sim.Shards);
// switch-to-switch message arrivals — the only cross-tile interaction
// the model has — travel through the group's FIFO boundary queues. A
// one-hop message can only reach the same tile or a torus-adjacent tile
// (wrap edges included), so the group's lookahead table activates just
// the 5-neighborhood pairs (self + N/S/E/W, deduped on degenerate
// grids): the per-edge drain scan is O(5N) instead of O(N^2), which is
// what keeps window overhead flat on the road to 32x32 tilings.
//
// Everything global — checkpoint orchestration (pause, drain-poll,
// take, resume), the log-stall hold, the transaction-timeout watchdog
// (a scan of every node's TBEs), fault injection, and the slow-start
// and adaptive-routing policy timers — is the same code on both paths,
// written against the system's control scheduler (System.ctl, a
// sim.Scheduler). Here that scheduler is the tile group, so control
// runs at window edges, single-threaded, with every kernel quiesced at
// the same instant, and a drain poll steps to the next edge instead of
// 20 cycles. What stays specific to this file is the tile layout and
// the edge-deferred recovery: a mis-speculation detected mid-window is
// committed at the next edge (at most one window of extra detection
// latency — the whole window's state is discarded by the rollback
// anyway).
//
// Determinism: shard-local execution is sequential; boundary arrivals
// enter kernels at deterministic edges in deterministic per-link FIFO
// order (same-shard links included, so bucket positions cannot depend
// on where the partition boundary falls); global control runs at
// deterministic edge times on a grid that no Run call pattern moves;
// and all statistics are exact integer accumulators striped per shard
// or per node. Results are therefore bit-identical at every shard
// count — the equivalence tests and the CI parallel-determinism lane
// hold the project to it.
package system

import (
	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// shardRuntime is the per-system state of the sharded execution mode.
type shardRuntime struct {
	grp     *sim.Shards
	shardOf []int

	// Deferred mis-speculations: one slot per shard holding the
	// (at, node)-minimal detection of the current window. The
	// detecting shard writes its own slot mid-window; the window edge
	// commits the globally earliest one as the recovery and clears all
	// (a single rollback disposes of every coalesced detection, exactly
	// as an immediate recovery would have).
	pendSet    []bool
	pendAt     []sim.Time
	pendNode   []coherence.NodeID
	pendReason []string
}

// TileGrid factors `shards` into the R×C tile grid BuildChecked uses on
// a w×h torus: among factorizations with R dividing the height and C
// the width, it picks the one whose tiles are closest to square
// (minimizing |tileW - tileH|), preferring more columns on ties — the
// legacy column-strip orientation, so shards=2 on 4x4 still means two
// 2x4 strips. ok is false when no factorization divides the torus.
// Exported so sweep drivers can clamp a requested count to the nearest
// legal one exactly the way the build will factor it.
func TileGrid(w, h, shards int) (r, c int, ok bool) {
	bestSkew := -1
	for r1 := 1; r1 <= shards; r1++ {
		if shards%r1 != 0 || h%r1 != 0 {
			continue
		}
		c1 := shards / r1
		if w%c1 != 0 {
			continue
		}
		skew := w/c1 - h/r1
		if skew < 0 {
			skew = -skew
		}
		// r1 ascends, so c1 descends: the first best has the most columns.
		if bestSkew < 0 || skew < bestSkew {
			r, c, bestSkew = r1, c1, skew
		}
	}
	return r, c, bestSkew >= 0
}

// shardGrid resolves the tile grid for a validated config: the explicit
// ShardRows×ShardCols when pinned, else the TileGrid auto-factorization.
func shardGrid(cfg Config) (r, c int) {
	if cfg.ShardRows > 0 {
		return cfg.ShardRows, cfg.ShardCols
	}
	r, c, _ = TileGrid(cfg.Net.Width, cfg.Net.Height, cfg.Shards)
	return r, c
}

// tileMap assigns node (x, y) of a w×h torus to tile (y/tileH)*c +
// x/tileW of an r×c tile grid.
func tileMap(w, h, r, c int) []int {
	tileW, tileH := w/c, h/r
	of := make([]int, w*h)
	for n := range of {
		x, y := n%w, n/w
		of[n] = (y/tileH)*c + x/tileW
	}
	return of
}

// tileLookahead builds the per-pair lookahead table for an r×c tile
// grid: every directed pair a one-hop switch-to-switch message can
// couple — a tile with itself and with its four torus neighbors (the
// only places a 4-connected node's neighbor can live) — carries the
// minimum hop latency; every other pair is inactive (0), pruning its
// boundary queue from the edge scan. Wrap-around and degenerate grids
// (single row/column, two rows/columns where both wrap neighbors are
// the same tile) fall out of the modular arithmetic: writing the same
// floor twice is idempotent.
//
// All active floors equal minHop because every message class, data
// (72B) included, can cross any adjacent tile edge; the window — the
// min over active floors — therefore cannot widen past minHop, and a
// corner node's one-hop neighbor is the proof (see DESIGN.md). What
// protocol structure does buy is the inactive pairs above.
func tileLookahead(r, c int, minHop sim.Time) [][]sim.Time {
	n := r * c
	look := make([][]sim.Time, n)
	for i := range look {
		look[i] = make([]sim.Time, n)
	}
	for ty := 0; ty < r; ty++ {
		for tx := 0; tx < c; tx++ {
			dst := ty*c + tx
			look[dst][dst] = minHop
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				sy := (ty + d[0] + r) % r
				sx := (tx + d[1] + c) % c
				look[dst][sy*c+sx] = minHop
			}
		}
	}
	return look
}

// newShardRuntime builds the tile group for a validated Shards >= 1
// directory config: the R×C tile grid, its lookahead topology, the
// node-to-tile map and the per-tile deferral slots.
func newShardRuntime(cfg Config) *shardRuntime {
	window := cfg.Net.MinHopLatency()
	rows, cols := shardGrid(cfg)
	grp := sim.NewShards(cfg.Shards, window)
	grp.SetLookahead(tileLookahead(rows, cols, window))
	return &shardRuntime{
		grp:        grp,
		shardOf:    tileMap(cfg.Net.Width, cfg.Net.Height, rows, cols),
		pendSet:    make([]bool, cfg.Shards),
		pendAt:     make([]sim.Time, cfg.Shards),
		pendNode:   make([]coherence.NodeID, cfg.Shards),
		pendReason: make([]string, cfg.Shards),
	}
}

// deferMisSpeculation records a protocol-detected mis-speculation from
// mid-window shard context. Only the detecting shard's slot is written,
// and it keeps the canonical minimum by (at, node) — not merely the
// first detection seen. Events within a shard execute in time order, so
// the first detection already has the minimal time; the node tie-break
// matters when two detections share a cycle, because their execution
// order within a bucket depends on insertion order, which the tiling
// can shift. Canonicalizing here makes the committed recovery
// tiling-invariant by construction, matching the cross-shard tie-break
// commitDeferredRecoveries applies. The handler that detected it drops
// its message and execution continues to the edge; the rollback there
// discards everything the doomed window touched, so the deferral costs
// at most one window of extra detection latency, identically at every
// tile count.
func (s *System) deferMisSpeculation(node coherence.NodeID, reason string) {
	sh := s.sh
	shard := sh.shardOf[node]
	at := sh.grp.Kernel(shard).Now()
	if sh.pendSet[shard] && (sh.pendAt[shard] < at ||
		(sh.pendAt[shard] == at && sh.pendNode[shard] <= node)) {
		return
	}
	sh.pendSet[shard] = true
	sh.pendAt[shard] = at
	sh.pendNode[shard] = node
	sh.pendReason[shard] = reason
}

// commitDeferredRecoveries runs at every window edge (PreControl,
// before scheduled control actions): it promotes the earliest pending
// detection — ties broken by node id, so the choice is canonical — to
// a coordinator recovery and clears the rest, which the single
// rollback disposes of.
func (s *System) commitDeferredRecoveries(sim.Time) {
	sh := s.sh
	best := -1
	for i := range sh.pendSet {
		if !sh.pendSet[i] {
			continue
		}
		if best < 0 || sh.pendAt[i] < sh.pendAt[best] ||
			(sh.pendAt[i] == sh.pendAt[best] && sh.pendNode[i] < sh.pendNode[best]) {
			best = i
		}
	}
	if best < 0 {
		return
	}
	reason := sh.pendReason[best]
	at := sh.pendAt[best]
	for i := range sh.pendSet {
		sh.pendSet[i] = false
	}
	// The nominal detection time is the mid-window moment the shard saw
	// it; passing it through charges the edge-deferral to the
	// recovery-latency distribution.
	s.Coord.TriggerMisSpeculationAt(reason, at)
}
