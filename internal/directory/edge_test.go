package directory

import (
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/network"
	"specsimp/internal/sim"
)

// TestAcksBeforeData: on the unordered response network, invalidation
// acks can reach an upgrading requestor before the directory's data.
func TestAcksBeforeData(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	doAccess(t, f, p, 2, blkA, coherence.Load)
	done := false
	p.Access(3, blkA, coherence.Store, func() { done = true })
	f.deliverKind(t, coherence.GetM) // dir sends Data + 2 Invs
	// Deliver both Invs and both Acks before the Data.
	f.deliverKind(t, coherence.Inv)
	f.deliverKind(t, coherence.Inv)
	f.deliverKind(t, coherence.Ack)
	f.deliverKind(t, coherence.Ack)
	if done {
		t.Fatal("store completed without data")
	}
	if st := p.CacheState(3, blkA); st != CIMad {
		t.Fatalf("state=%s want IM_AD while data outstanding", st)
	}
	f.deliverAll(t) // Data arrives last; completion immediate
	if !done {
		t.Fatal("store never completed")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDataBeforeAcks: the usual order — data first, then acks trickle.
func TestDataBeforeAcks(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	doAccess(t, f, p, 2, blkA, coherence.Load)
	done := false
	p.Access(3, blkA, coherence.Store, func() { done = true })
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.k.Drain(1_000_000)
	if done {
		t.Fatal("store completed without acks")
	}
	if st := p.CacheState(3, blkA); st != CIMa {
		t.Fatalf("state=%s want IM_A awaiting acks", st)
	}
	f.deliverAll(t)
	if !done {
		t.Fatal("store never completed")
	}
}

// TestStaleInvAfterSilentEviction: a silently evicted sharer stays on
// the directory's list; the eventual Inv must be acked from state I.
func TestStaleInvAfterSilentEviction(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load) // node1 S
	// Fill node1's (single) set so A is silently evicted.
	doAccess(t, f, p, 1, blkB, coherence.Load)
	doAccess(t, f, p, 1, blkC, coherence.Load)
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("state=%s want I after silent eviction", st)
	}
	// node2 stores A: dir still lists node1; Inv goes to an I cache.
	done := false
	p.Access(2, blkA, coherence.Store, func() { done = true })
	f.deliverAll(t)
	if !done {
		t.Fatal("store blocked on a stale sharer's ack")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvDuringUpgrade: SM_AD loses its S copy to a competing writer
// and must both ack and downgrade to IM_AD.
func TestInvDuringUpgrade(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	doAccess(t, f, p, 2, blkA, coherence.Load)
	var done1, done2 bool
	p.Access(1, blkA, coherence.Store, func() { done1 = true }) // SM_AD
	p.Access(2, blkA, coherence.Store, func() { done2 = true }) // SM_AD
	// Deliver node2's GetM first: the directory invalidates node1's S
	// copy while node1 is itself mid-upgrade.
	if !f.deliverFirst(t, func(m coherence.Msg, _ *network.Message) bool {
		return m.Kind == coherence.GetM && m.From == 2
	}) {
		t.Fatal("node2's GetM not queued")
	}
	f.deliverKind(t, coherence.Inv)
	if st := p.CacheState(1, blkA); st != CIMad {
		t.Fatalf("node1=%s after Inv mid-upgrade, want IM_AD", st)
	}
	f.deliverAll(t)
	if !done1 || !done2 {
		t.Fatalf("done1=%v done2=%v", done1, done2)
	}
	// Both stores happened: the block version counts both.
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerUpgradeRace: the O owner upgrades while a competing GetM is
// queued ahead of it — the owner serves the forward from OM_AD, loses
// the line, and completes later from the new owner's data.
func TestOwnerUpgradeRace(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // node1 M v1
	doAccess(t, f, p, 2, blkA, coherence.Load)  // node1 O, node2 S
	var done1, done3 bool
	// node3's GetM reaches the directory before node1's upgrade.
	p.Access(3, blkA, coherence.Store, func() { done3 = true })
	f.deliverKind(t, coherence.GetM) // dir: FwdGetM->node1, Inv->node2
	p.Access(1, blkA, coherence.Store, func() { done1 = true })
	// node1 is now OM_AD with its GetM queued behind node3's txn.
	f.deliverKind(t, coherence.FwdGetM)
	if st := p.CacheState(1, blkA); st != CIMad {
		t.Fatalf("node1=%s after serving forward mid-upgrade, want IM_AD", st)
	}
	f.deliverAll(t)
	if !done1 || !done3 {
		t.Fatalf("done1=%v done3=%v", done1, done3)
	}
	// v1 + node3's store + node1's upgrade-store.
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3", v)
	}
	if st := p.CacheState(1, blkA); st != CM {
		t.Fatalf("node1=%s want M (its upgrade ran last)", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerUpgradeFwdGetS: a GetS forwarded to an upgrading owner is
// served from the O line without disturbing the upgrade.
func TestOwnerUpgradeFwdGetS(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 2, blkA, coherence.Load) // node1 -> O
	var done1, done3 bool
	p.Access(3, blkA, coherence.Load, func() { done3 = true })
	f.deliverKind(t, coherence.GetS) // FwdGetS -> node1 in flight
	p.Access(1, blkA, coherence.Store, func() { done1 = true })
	f.deliverKind(t, coherence.FwdGetS)
	if st := p.CacheState(1, blkA); st != COMad {
		t.Fatalf("node1=%s want OM_AD still (GetS preserves the line)", st)
	}
	f.deliverAll(t)
	if !done1 || !done3 {
		t.Fatalf("done1=%v done3=%v", done1, done3)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetSRaceWithWritebackSpecDetects: the §3.1 race also exists for
// reads — a FwdGetS overtaken by the WBAck hits an invalid cache.
func TestGetSRaceWithWritebackSpecDetects(t *testing.T) {
	_, f, p := scripted(t, Spec)
	var reasons []string
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) {
		reasons = append(reasons, r)
		p.ResetTransients()
		f.queue = nil
	}
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	p.Access(2, blkA, coherence.Load, func() {}) // GetS this time
	f.deliverKind(t, coherence.GetS)
	f.deliverKind(t, coherence.PutM)
	f.deliverKind(t, coherence.WBAck)   // reordered ahead
	f.deliverKind(t, coherence.FwdGetS) // hits I
	if len(reasons) != 1 || reasons[0] != "p2p-ordering" {
		t.Fatalf("reasons=%v", reasons)
	}
}

// TestGetSRaceWithWritebackFullHandles: the Full variant resolves the
// same reordering: directory supplies the reader, completion flips to
// DS, and the stale forward is absorbed in II_F.
func TestGetSRaceWithWritebackFullHandles(t *testing.T) {
	_, f, p := scripted(t, Full)
	readerDone := false
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	p.Access(2, blkA, coherence.Load, func() { readerDone = true })
	f.deliverKind(t, coherence.GetS)
	f.deliverKind(t, coherence.PutM)
	f.deliverKind(t, coherence.WBAck)
	if st := p.CacheState(1, blkA); st != CIIf {
		t.Fatalf("node1=%s want II_F", st)
	}
	f.deliverAll(t)
	if !readerDone {
		t.Fatal("reader never completed")
	}
	if ds, _ := p.DirState(blkA); ds != DS {
		t.Fatalf("dir=%s want DS (owner wrote back)", ds)
	}
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory=%d want the written-back version", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleDataDroppedByTID: a duplicate Data outliving its transaction
// must not corrupt a newer transaction on the same block (regression
// for the bug found by the randomized property test).
func TestStaleDataDroppedByTID(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	n2 := false
	p.Access(2, blkA, coherence.Store, func() { n2 = true })
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.PutM)    // race: dir double-sends Data
	f.deliverKind(t, coherence.FwdGetM) // owner also serves: 2 Datas queued
	// Node2 completes from the first Data...
	f.deliverKind(t, coherence.Data)
	f.deliverAll(t)
	if !n2 {
		t.Fatal("store never completed")
	}
	// ...and a new transaction on A must not absorb the leftover Data.
	n2b := false
	p.Access(3, blkA, coherence.Load, func() { n2b = true })
	f.deliverAll(t)
	if !n2b {
		t.Fatal("follow-up load never completed")
	}
	if p.Stats().DupDataDropped.Value() == 0 {
		t.Fatal("duplicate data not dropped")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogQuietOnHealthyRun: the deadlock watchdog must not fire
// false positives on an uncongested run over a real (safe) network.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	k := sim.NewKernel()
	net := network.New(k, network.SafeStaticConfig(4, 4, 0.8))
	cfg := DefaultConfig(16, Spec)
	cfg.TimeoutCycles = 100_000
	p := New(k, net, cfg, nil)
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) { t.Fatalf("watchdog false positive: %s", r) }
	p.StartWatchdog(10_000)
	r := sim.NewRNG(5)
	for n := 0; n < 16; n++ {
		n := n
		remaining := 60
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			a := coherence.Addr(r.Intn(32) * 64)
			kind := coherence.Load
			if r.Bool(0.4) {
				kind = coherence.Store
			}
			p.Access(coherence.NodeID(n), a, kind, func() { k.After(20, issue) })
		}
		k.At(sim.Time(n), issue)
	}
	k.Run(2_000_000)
	if p.Stats().TimeoutsDetected.Value() != 0 {
		t.Fatal("timeouts on a healthy run")
	}
}

// TestDirStaleWritebackDuringForeignBusy: a long-delayed PutM arrives
// while the directory is busy with a transaction whose forward targets
// a different node (regression for the stress-found bug).
func TestDirStaleWritebackDuringForeignBusy(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // node1 M
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {}) // evict A -> PutM held
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	// node2 takes ownership of A through the in-flight-writeback race
	// (forward served first, in order).
	p.Access(2, blkA, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.FwdGetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	// node3 now requests A: dir is busy forwarding to node2... and only
	// now does node1's ancient PutM arrive.
	p.Access(3, blkA, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.PutM) // stale: busy fwdTo==node2 != node1
	f.deliverAll(t)
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("node1=%s want I after stale writeback acked", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3 (three stores)", v)
	}
}
