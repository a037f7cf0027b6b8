package main

import (
	"runtime"
	"time"

	"specsimp/internal/cache"
	"specsimp/internal/network"
	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// Standalone layer probes. Each drives one package through its public
// API, sized from the workload's own configuration, and reports host
// time per operation as the median of probePasses timed passes (after
// one untimed warm-up pass).
const probePasses = 3

// layerConfig is what the probes take from the workload's built system.
type layerConfig struct {
	wl                 workload.Profile
	nodes              int
	seed               uint64
	l1b, l1w, l2b, l2w int
	net                network.Config
	mgr                safetynet.Config
	interval           sim.Time
	pending            int    // pending events at the end of the run
	epochEntries       uint64 // log entries per checkpoint interval
}

func layersOf(s *system.System) layerConfig {
	lc := layerConfig{
		wl:       s.Cfg.Workload,
		nodes:    s.Cfg.Nodes,
		seed:     s.Cfg.Seed,
		net:      s.Net.Config(),
		mgr:      s.Mgr.Config(),
		interval: s.Cfg.CheckpointInterval,
	}
	if s.Dir != nil {
		c := s.Dir.Config()
		lc.l1b, lc.l1w, lc.l2b, lc.l2w = c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways
	} else {
		c := s.Snoop.Config()
		lc.l1b, lc.l1w, lc.l2b, lc.l2w = c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways
	}
	return lc
}

// probeLayers runs every probe in its own span and reports its metrics.
func probeLayers(tr *tracer, lc layerConfig, put func(name string, v float64, unit string)) {
	refs := refStream(lc, 1<<19)

	end := tr.begin("cache.New")
	s, mb := cacheNew(lc)
	end()
	put("cache.new_s", s, "s")
	put("cache.new_mb", mb, "MB")

	end = tr.begin("cache.access")
	put("cache.access_ns", cacheAccess(lc, refs), "ns")
	end()

	end = tr.begin("workload.ref")
	put("workload.ref_ns", workloadRef(lc, len(refs)), "ns")
	end()

	end = tr.begin("sim.event")
	put("sim.event_ns", simEvent(lc, 1<<20), "ns")
	end()

	end = tr.begin("network.msg")
	put("network.msg_ns", networkMsg(lc, 50_000), "ns")
	end()

	end = tr.begin("safetynet.log")
	logNs, ckptNs := safetynetLog(lc, refs)
	end()
	put("safetynet.log_ns", logNs, "ns")
	put("safetynet.checkpoint_ns", ckptNs, "ns")
}

// passes runs fn once untimed, then probePasses times, and returns the
// median of ns/op, where fn reports how many operations it did.
func passes(fn func() int) float64 {
	fn()
	var ns []float64
	for i := 0; i < probePasses; i++ {
		t := time.Now()
		n := fn()
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(max(n, 1)))
	}
	return median(ns)
}

// refStream is node 0's reference stream for the workload and seed.
func refStream(lc layerConfig, n int) []workload.Op {
	g := workload.New(lc.wl, 0, lc.nodes, lc.seed)
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = g.Peek()
		g.Advance()
	}
	return ops
}

// cacheNew builds every node's L1 and L2 with cache.New and returns the
// median build time and the live heap the arrays take.
func cacheNew(lc layerConfig) (seconds, mb float64) {
	var secs, mbs []float64
	for i := 0; i < probePasses; i++ {
		base := liveHeapMB()
		t := time.Now()
		cs := make([]*cache.Cache, 0, 2*lc.nodes)
		for n := 0; n < lc.nodes; n++ {
			cs = append(cs, cache.New(lc.l1b, lc.l1w), cache.New(lc.l2b, lc.l2w))
		}
		secs = append(secs, time.Since(t).Seconds())
		mbs = append(mbs, liveHeapMB()-base)
		runtime.KeepAlive(cs)
	}
	return median(secs), median(mbs)
}

// cacheAccess replays refs through one node's L1 and L2: a Lookup in
// each level, and on a miss Victim+Install, as a cache controller does.
func cacheAccess(lc layerConfig, refs []workload.Op) float64 {
	l1, l2 := cache.New(lc.l1b, lc.l1w), cache.New(lc.l2b, lc.l2w)
	return passes(func() int {
		for i, op := range refs {
			if l1.Lookup(op.Addr) != nil {
				continue
			}
			if l2.Lookup(op.Addr) == nil {
				l2.Install(l2.Victim(op.Addr, nil), op.Addr, 1, uint64(i))
			}
			l1.Install(l1.Victim(op.Addr, nil), op.Addr, 1, uint64(i))
		}
		return len(refs)
	})
}

var sink uint64

// workloadRef times Peek+Advance on a fresh generator.
func workloadRef(lc layerConfig, n int) float64 {
	g := workload.New(lc.wl, 0, lc.nodes, lc.seed)
	return passes(func() int {
		for i := 0; i < n; i++ {
			sink += uint64(g.Peek().Addr)
			g.Advance()
		}
		return n
	})
}

// rescheduler keeps the kernel's pending-event count constant: each
// event it handles schedules one more, 1 to 64 cycles out.
type rescheduler struct {
	k   *sim.Kernel
	rng *sim.RNG
}

func (r *rescheduler) HandleEvent(_, _ uint64, _ any) {
	r.k.AfterEvent(sim.Time(1+r.rng.Intn(64)), r, 0, 0, nil)
}

// simEvent times AfterEvent plus dispatch with as many events pending
// as the workload's kernel held at the end of its run.
func simEvent(lc layerConfig, n int) float64 {
	k := sim.NewKernel()
	r := &rescheduler{k: k, rng: sim.NewRNG(lc.seed)}
	depth := max(lc.pending, 1)
	for i := 0; i < depth; i++ {
		r.HandleEvent(0, 0, nil)
	}
	// Mean delay is 32.5 cycles, so depth/32.5 events fire per cycle.
	span := sim.Time(float64(n) * 32.5 / float64(depth))
	return passes(func() int { return int(k.Run(k.Now() + span)) })
}

// netLoad is a closed-loop message source: every delivery makes the
// receiver send one new message, so each node keeps its share of the
// messages in flight.
type netLoad struct {
	k         *sim.Kernel
	net       *network.Network
	rng       *sim.RNG
	nodes     int
	delivered int
}

func (l *netLoad) Deliver(m *network.Message) bool {
	l.delivered++
	l.k.AfterEvent(1, l, uint64(m.Dst), 0, nil)
	return true
}

// HandleEvent sends one message from node a0 to a random other node, on
// a random virtual network, as a control (8 B) or data (72 B) message.
func (l *netLoad) HandleEvent(a0, _ uint64, _ any) {
	m := l.net.AllocMessage()
	m.Src = network.NodeID(a0)
	m.Dst = network.NodeID((int(a0) + 1 + l.rng.Intn(l.nodes-1)) % l.nodes)
	m.VNet = l.rng.Intn(l.net.Config().VNets)
	m.Size = 8
	if l.rng.Bool(0.5) {
		m.Size = 72
	}
	l.net.Send(m)
}

// networkMsg times delivered messages on the workload's network, with
// two messages per node in flight.
func networkMsg(lc layerConfig, n int) float64 {
	k := sim.NewKernel()
	l := &netLoad{k: k, net: network.New(k, lc.net), rng: sim.NewRNG(lc.seed), nodes: lc.nodes}
	for i := 0; i < lc.nodes; i++ {
		l.net.AttachClient(network.NodeID(i), l)
		l.HandleEvent(uint64(i), 0, nil)
		l.HandleEvent(uint64(i), 0, nil)
	}
	return passes(func() int {
		from := l.delivered
		for l.delivered-from < n {
			k.Run(k.Now() + 1000)
		}
		return l.delivered - from
	})
}

// safetynetLog drives a Manager with the workload's log configuration:
// each checkpoint interval logs the workload's entries per interval,
// keyed by the reference stream's blocks, then takes a checkpoint. It
// returns ns per LogOldValue call and per TakeCheckpointWindow call.
func safetynetLog(lc layerConfig, refs []workload.Op) (logNs, ckptNs float64) {
	k := sim.NewKernel()
	m := safetynet.NewManager(k, lc.mgr)
	m.TakeCheckpoint(nil)
	undo := func() {}
	perEpoch := int(max(lc.epochEntries, 1))
	next := 0
	var logs, ckpts []float64
	for pass := 0; pass <= probePasses; pass++ {
		var logT, ckptT time.Duration
		calls, epochs := 0, 0
		for calls < len(refs) {
			t := time.Now()
			for j := 0; j < perEpoch; j++ {
				m.LogOldValue(next%lc.nodes, uint64(refs[next%len(refs)].Addr), undo)
				next++
			}
			logT += time.Since(t)
			calls += perEpoch
			k.Run(k.Now() + lc.interval)
			t = time.Now()
			m.TakeCheckpointWindow(nil, lc.mgr.ValidationWindow)
			ckptT += time.Since(t)
			epochs++
		}
		if pass > 0 {
			logs = append(logs, float64(logT.Nanoseconds())/float64(calls))
			ckpts = append(ckpts, float64(ckptT.Nanoseconds())/float64(epochs))
		}
	}
	return median(logs), median(ckpts)
}
