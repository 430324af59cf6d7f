package group

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/transport"
)

// This file runs the group key schedule end to end: the hub and every
// member are protocol.Node peers across transport.Dial/Listen
// endpoints, so one platoon session — N concurrent pairwise
// establishments, epoch rekey fan-out, churn — works over tcp, mem,
// and lora unmodified.
//
// Timing discipline: exactly one goroutine owns each conn at any time
// (transport conns, the lora medium's in particular, are not
// full-duplex-concurrent), and every wait is counted in RecvTimeout
// ticks of the conn's own clock — wall time on sockets, virtual
// seconds on a lockstep medium. No wall-clock timer ever decides a
// protocol action, so a lockstep platoon's outcome does not depend on
// how fast the host happens to run.

// Labeled metric names, built once (the obs.Labeled discipline).
var (
	groupEstablishOK     = obs.Labeled(obs.GroupEstablishments, "result", obs.GroupOK)
	groupEstablishFailed = obs.Labeled(obs.GroupEstablishments, "result", obs.GroupFailed)
	groupEnvelopeAcked   = obs.Labeled(obs.GroupEnvelopes, "result", obs.GroupOK)
	groupEnvelopeFailed  = obs.Labeled(obs.GroupEnvelopes, "result", obs.GroupFailed)
)

// ErrSessionEnded reports that the hub ended the platoon session
// (a bye frame) while the member was waiting for a key.
var ErrSessionEnded = errors.New("group: platoon session ended")

// ErrNoPairwiseKey reports a pairwise establishment run that derived
// no key, so the peer cannot participate in the group schedule.
var ErrNoPairwiseKey = errors.New("group: no pairwise key derived")

// defaultTick is the receive-poll granularity in conn time.
const defaultTick = 2 * time.Second

// ticks converts a total wait into a RecvTimeout tick budget, at least 1.
func ticks(total, tick time.Duration) int {
	n := int(total / tick)
	if n < 1 {
		n = 1
	}
	return n
}

// memberName is the hub-side registry ID for a wire member.
func memberName(member uint64) string { return strconv.FormatUint(member, 10) }

// platoonSession is the protocol session identifier both sides of a
// member's pairwise establishment use.
func platoonSession(member uint64) string { return fmt.Sprintf("vk/platoon/%d", member) }

// ---------------------------------------------------------------------
// Hub side.
// ---------------------------------------------------------------------

// HubConfig configures the hub end of a platoon session. All durations
// are measured on the conn's clock (virtual seconds over lora).
type HubConfig struct {
	// Resolve supplies the hub-side scheme clone and Alice windows for a
	// joining member announcing the given window count. It is called
	// concurrently from establishment workers, so it must hand out a
	// dedicated clone per call (callers typically wrap sys.Clone() +
	// server.SessionWindows).
	Resolve func(member uint64, windows int) (pipeline.Scheme, [][]float64, error)
	// Retry is the ARQ policy for pairwise establishment (zero value:
	// the protocol default; use virtual-second policies on lora).
	Retry protocol.RetryPolicy
	// Workers bounds concurrent pairwise establishments (0: one worker
	// per member — required for deterministic lockstep runs, where a
	// smaller pool's dispatch order would depend on the scheduler).
	Workers int
	// JoinWait bounds the wait for a join frame on an accepted conn
	// (default 2min).
	JoinWait time.Duration
	// AckWait is the retransmit interval for an unacknowledged rekey
	// envelope (default 4 ticks).
	AckWait time.Duration
	// AckRetries is how many times an unacknowledged envelope is
	// retransmitted before the member is marked failed (default 6).
	AckRetries int
	// Tick is the receive-poll granularity (default 2s).
	Tick time.Duration
	// Recorder receives the vk_group_* metrics (default nop).
	Recorder obs.Recorder
}

func (c HubConfig) normalize() HubConfig {
	if c.Tick <= 0 {
		c.Tick = defaultTick
	}
	if c.JoinWait <= 0 {
		c.JoinWait = 2 * time.Minute
	}
	if c.AckWait <= 0 {
		c.AckWait = 4 * c.Tick
	}
	if c.AckRetries <= 0 {
		c.AckRetries = 6
	}
	c.Recorder = obs.OrNop(c.Recorder)
	return c
}

// deliverReq asks a link loop to deliver one sealed envelope; done
// receives exactly one verdict once the member acks, departs, or the
// retry budget runs out.
type deliverReq struct {
	env     Envelope
	data    []byte
	started time.Time
	done    chan bool
}

// memberLink is the hub's live connection to one established member.
// Its single linkLoop goroutine owns both directions of the conn.
type memberLink struct {
	name   string
	member uint64
	conn   transport.Conn
	cmds   chan *deliverReq
	gone   chan struct{} // closed when the link is down
	once   sync.Once
}

func (l *memberLink) shutdown() { l.once.Do(func() { close(l.gone) }) }

// HubSession drives the hub end of a platoon over a transport listener:
// concurrent pairwise establishment, rekey fan-out with per-member
// acknowledgement, and churn bookkeeping.
type HubSession struct {
	cfg HubConfig
	hub *Hub
	rec obs.Recorder

	mu     sync.Mutex
	links  map[string]*memberLink
	closed bool

	rekeyMu sync.Mutex // serializes fan-outs: one wave on the wire at a time
	leaves  chan uint64
	loops   sync.WaitGroup
}

// NewHubSession builds a hub session; cfg.Resolve is required.
func NewHubSession(cfg HubConfig) (*HubSession, error) {
	if cfg.Resolve == nil {
		return nil, errors.New("group: hub session needs a Resolve callback")
	}
	cfg = cfg.normalize()
	return &HubSession{
		cfg:    cfg,
		hub:    NewHub(WithRecorder(cfg.Recorder)),
		rec:    cfg.Recorder,
		links:  make(map[string]*memberLink),
		leaves: make(chan uint64, 4096),
	}, nil
}

// EstablishOutcome reports one accepted conn's pairwise establishment.
type EstablishOutcome struct {
	Member uint64
	Rounds int   // pairwise rounds the hub confirmed
	Err    error // nil when the member joined the group
}

// Establish accepts n conns from l and runs the pairwise Vehicle-Key
// protocol with each concurrently — every accepted conn gets its own
// establishment goroutine (bounded by cfg.Workers) writing only its
// own outcome slot, so the result is identical at any worker count.
// Members whose run confirms at least one key join the hub; their
// conns move under a link loop that serves acks and leave events.
// Outcomes are returned sorted by member ID.
func (s *HubSession) Establish(l transport.Listener, n int) ([]EstablishOutcome, error) {
	conns := make([]transport.Conn, 0, n)
	for len(conns) < n {
		c, err := l.Accept()
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("group: establish accept: %w", err)
		}
		conns = append(conns, c)
	}
	outcomes := make([]EstablishOutcome, len(conns))
	workers := s.cfg.Workers
	if workers <= 0 || workers > len(conns) {
		workers = len(conns)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i] = s.establishOne(c)
		}()
	}
	wg.Wait()
	sort.SliceStable(outcomes, func(a, b int) bool { return outcomes[a].Member < outcomes[b].Member })
	return outcomes, nil
}

// establishOne runs one member's join + pairwise establishment and, on
// success, registers the member and hands the conn to its link loop.
// On failure the conn is closed, which also unblocks the member side.
func (s *HubSession) establishOne(conn transport.Conn) EstablishOutcome {
	started := time.Now()
	fail := func(err error) EstablishOutcome {
		_ = conn.Close()
		s.rec.Add(groupEstablishFailed, 1)
		return EstablishOutcome{Err: err}
	}
	join, err := s.awaitJoin(conn)
	if err != nil {
		return fail(err)
	}
	member := join.Member
	sys, aliceWin, err := s.cfg.Resolve(member, join.Windows)
	if err != nil {
		return fail(fmt.Errorf("group: member %d: resolve: %w", member, err))
	}
	node := protocol.NewNode(sys, conn, platoonSession(member),
		protocol.WithRetryPolicy(s.cfg.Retry), protocol.WithRecorder(s.rec))
	outs, err := node.RunAlice(aliceWin)
	if err != nil {
		return fail(fmt.Errorf("group: member %d: establish: %w", member, err))
	}
	rounds, joined := 0, false
	for _, ko := range outs {
		if !ko.Confirmed {
			continue
		}
		rounds++
		if !joined {
			// The first confirmed round keys the member's group channel;
			// the member keeps a candidate channel per derived key and
			// pins the matching one on its first envelope.
			err = s.hub.Join(memberName(member), ko.Key)
			joined = err == nil
		}
		secure.Wipe(ko.Key)
	}
	if err != nil {
		return fail(err)
	}
	if !joined {
		return fail(fmt.Errorf("group: member %d: %w", member, ErrNoPairwiseKey))
	}
	link := &memberLink{
		name:   memberName(member),
		member: member,
		conn:   conn,
		cmds:   make(chan *deliverReq, 1),
		gone:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(ErrHubClosed)
	}
	s.links[link.name] = link
	s.loops.Add(1)
	s.mu.Unlock()
	go s.linkLoop(link)
	s.rec.Add(groupEstablishOK, 1)
	//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
	s.rec.Observe(obs.GroupEstablishSeconds, time.Since(started).Seconds())
	return EstablishOutcome{Member: member, Rounds: rounds}
}

// awaitJoin reads frames off a fresh conn until a join arrives, within
// the join tick budget. Non-join deliveries (join copies on lossy
// links, early protocol traffic) are skipped.
func (s *HubSession) awaitJoin(conn transport.Conn) (frame, error) {
	for budget := ticks(s.cfg.JoinWait, s.cfg.Tick); budget > 0; {
		data, err := conn.RecvTimeout(s.cfg.Tick)
		if errors.Is(err, transport.ErrTimeout) {
			budget--
			continue
		}
		if err != nil {
			return frame{}, fmt.Errorf("group: await join: %w", err)
		}
		fr, err := decodeFrame(data)
		if err != nil || fr.Kind != kindJoin {
			continue
		}
		// Welcome the member so it stops retransmitting its join and
		// starts the pairwise run. A lost welcome is repaired by the
		// member's bounded retries; leftover join duplicates are skipped
		// by the protocol layer as ARQ garbage.
		_ = conn.Send(encodeFrame(frame{Kind: kindWelcome, Member: fr.Member}))
		return fr, nil
	}
	return frame{}, errors.New("group: no join before deadline")
}

// linkLoop owns a member's conn after establishment. It is the only
// goroutine touching the conn: it delivers rekey envelopes handed over
// via cmds (retransmitting the identical cached ciphertext every
// AckWait of conn time until the member acks the epoch), routes leave
// frames and dead conns into departure events, and sends the session
// bye once the hub closes.
func (s *HubSession) linkLoop(l *memberLink) {
	defer s.loops.Done()
	var cur *deliverReq
	finish := func(ok bool) {
		if cur == nil {
			return
		}
		if ok {
			s.rec.Add(groupEnvelopeAcked, 1)
			//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
			s.rec.Observe(obs.GroupFanoutSeconds, time.Since(cur.started).Seconds())
		} else {
			s.rec.Add(groupEnvelopeFailed, 1)
		}
		cur.done <- ok
		cur = nil
	}
	defer func() {
		// Guarantee a verdict for every request: the pending one, then
		// anything that raced into the buffer while we were exiting.
		l.shutdown()
		finish(false)
		for {
			select {
			case req := <-l.cmds:
				req.done <- false
			default:
				return
			}
		}
	}()
	ackTicks := ticks(s.cfg.AckWait, s.cfg.Tick)
	attempts, sinceSend := 0, 0
	for {
		if s.isClosed() {
			_ = l.conn.Send(encodeFrame(frame{Kind: kindBye, Member: l.member}))
			// Close the link as the loop ends, not after every loop has:
			// on a lockstep medium a device counts as runnable until it
			// parks or its link closes, so a loop returning with its link
			// open freezes the clock for the loops still waiting for a
			// tick to notice the close. The bye is already delivered (or
			// lost) when Send returns, and delivered frames drain first.
			_ = l.conn.Close()
			return
		}
		if cur == nil {
			select {
			case cur = <-l.cmds:
				attempts, sinceSend = 0, ackTicks // transmit on this pass
			default:
			}
		}
		if cur != nil && sinceSend >= ackTicks {
			if attempts > s.cfg.AckRetries {
				finish(false)
			} else {
				if err := l.conn.Send(cur.data); err != nil {
					s.dropMember(l)
					return
				}
				attempts++
				sinceSend = 0
			}
		}
		data, err := l.conn.RecvTimeout(s.cfg.Tick)
		if errors.Is(err, transport.ErrTimeout) {
			sinceSend++
			continue
		}
		if err != nil {
			s.dropMember(l)
			return
		}
		fr, err := decodeFrame(data)
		if err != nil {
			continue // a late protocol retransmit, or garbage
		}
		switch fr.Kind {
		case kindAck:
			if cur != nil && fr.Epoch == cur.env.Epoch {
				finish(true)
			}
		case kindLeave:
			// Drop the member while this end of the link is still
			// scheduler-visible: the whole accounting — membership, link
			// registry, the departure event — lands at the leave frame's
			// own virtual time, with the lockstep clock held by this
			// goroutine. No bye is sent on this path: a bye would hand the
			// member the trigger to close the (shared-fate) link while our
			// send still parks on the medium, turning everything after it
			// into a wall-clock race. The conn close inside dropMember
			// doubles as the confirmation — the member's leave loop treats
			// link death as "the hub has dropped us".
			s.dropMember(l)
			return
		}
	}
}

// dropMember removes a departed member: hub membership, link registry,
// the conn, and a departure event for AwaitLeaves.
func (s *HubSession) dropMember(l *memberLink) {
	s.mu.Lock()
	if s.closed || s.links[l.name] != l {
		s.mu.Unlock()
		return
	}
	delete(s.links, l.name)
	s.mu.Unlock()
	_ = s.hub.Leave(l.name)
	l.shutdown()
	_ = l.conn.Close()
	s.rec.Add(obs.GroupLeaves, 1)
	select {
	case s.leaves <- l.member:
	default:
	}
}

func (s *HubSession) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// RekeyOutcome reports one rekey wave.
type RekeyOutcome struct {
	Epoch   uint32
	Members []uint64 // envelope targets, sorted
	Acked   []uint64 // members that acknowledged the epoch, sorted
	Failed  []uint64 // members that never acked or departed mid-wave, sorted
}

// Rekey derives the next epoch's group key and fans the sealed
// envelopes out to every member's link loop concurrently, returning
// once each target has acked, departed, or exhausted its retry budget.
// Waves are serialized, so each conn carries at most one outstanding
// envelope.
func (s *HubSession) Rekey(entropy []byte) (RekeyOutcome, error) {
	s.rekeyMu.Lock()
	defer s.rekeyMu.Unlock()
	if s.isClosed() {
		return RekeyOutcome{}, ErrHubClosed
	}
	started := time.Now()
	envs, err := s.hub.Rekey(entropy)
	if err != nil {
		return RekeyOutcome{}, err
	}
	out := RekeyOutcome{Epoch: s.hub.Epoch()}
	type pending struct {
		link *memberLink
		req  *deliverReq
	}
	var sent []pending
	for _, env := range envs {
		s.mu.Lock()
		link := s.links[env.MemberID]
		s.mu.Unlock()
		if link == nil {
			continue // departed between the seal and the fan-out
		}
		data := encodeFrame(frame{Kind: kindKey, Member: link.member, Epoch: env.Epoch, Sealed: env.Sealed})
		req := &deliverReq{env: env, data: data, started: started, done: make(chan bool, 1)}
		out.Members = append(out.Members, link.member)
		select {
		case link.cmds <- req:
			sent = append(sent, pending{link, req})
		case <-link.gone:
			out.Failed = append(out.Failed, link.member)
		}
	}
	for _, p := range sent {
		ok := false
		select {
		case ok = <-p.req.done:
		case <-p.link.gone:
			// The loop guarantees a verdict for every accepted request;
			// prefer it if it raced ahead of the shutdown.
			select {
			case ok = <-p.req.done:
			default:
			}
		}
		if ok {
			out.Acked = append(out.Acked, p.link.member)
		} else {
			out.Failed = append(out.Failed, p.link.member)
		}
	}
	sort.Slice(out.Members, func(a, b int) bool { return out.Members[a] < out.Members[b] })
	sort.Slice(out.Acked, func(a, b int) bool { return out.Acked[a] < out.Acked[b] })
	sort.Slice(out.Failed, func(a, b int) bool { return out.Failed[a] < out.Failed[b] })
	//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
	s.rec.Observe(obs.GroupRekeySeconds, time.Since(started).Seconds())
	return out, nil
}

// AwaitLeaves blocks until n departure events have arrived (counted
// from the session start; events are buffered) or the wall-clock
// failsafe expires, and returns how many it saw.
func (s *HubSession) AwaitLeaves(n int, wait time.Duration) int {
	got := 0
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for got < n {
		select {
		case <-s.leaves:
			got++
		case <-timer.C:
			return got
		}
	}
	return got
}

// Members returns the live members' wire IDs, sorted.
func (s *HubSession) Members() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l.member)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Epoch returns the hub's current key epoch.
func (s *HubSession) Epoch() uint32 { return s.hub.Epoch() }

// GroupKey returns a copy of the hub's current group key.
func (s *HubSession) GroupKey() []byte { return s.hub.GroupKey() }

// Hub exposes the underlying key schedule (tests, diagnostics).
func (s *HubSession) Hub() *Hub { return s.hub }

// Close ends the platoon session: each link loop sends a best-effort
// bye and exits, conns close, and the group key is wiped. Idempotent.
func (s *HubSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	links := make([]*memberLink, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.links = make(map[string]*memberLink)
	s.mu.Unlock()
	s.loops.Wait() // loops notice closed within one tick and send byes
	for _, l := range links {
		l.shutdown()
		_ = l.conn.Close()
	}
	s.hub.Close()
	return nil
}

// ---------------------------------------------------------------------
// Member side.
// ---------------------------------------------------------------------

// MemberConfig configures one member end of a platoon session.
type MemberConfig struct {
	// Member is this member's wire ID (unique within the platoon).
	Member uint64
	// Scheme is the member's pipeline clone (never shared across
	// concurrent sessions).
	Scheme pipeline.Scheme
	// Windows is the member's Bob-side probing windows.
	Windows [][]float64
	// Retry is the ARQ policy for pairwise establishment.
	Retry protocol.RetryPolicy
	// JoinCopies bounds the join handshake: the join frame is
	// retransmitted once per tick until the hub's welcome arrives, up
	// to JoinCopies attempts (default 1; use ~8 on the shared medium,
	// where a whole platoon's joins collide in the ignition window).
	// Exhausting the budget is not fatal — the member proceeds in case
	// only the welcome was lost.
	JoinCopies int
	// Tick is the receive-poll granularity (default 2s; conn time).
	Tick time.Duration
	// Linger is how long Leave keeps draining the conn — re-acking
	// duplicate envelopes whose acks were lost — before departing, so
	// the hub's fan-out does not mistake a lost ack for a dead member
	// (default 5 ticks).
	Linger time.Duration
	// Recorder receives the member-side vk_group_* metrics.
	Recorder obs.Recorder
}

// MemberSession is an established member following the hub's epoch
// schedule. It owns the conn; all methods must be called from one
// goroutine at a time.
type MemberSession struct {
	conn   transport.Conn
	member uint64
	state  *MemberState
	rounds int
	tick   time.Duration
	linger time.Duration
	rec    obs.Recorder
}

// JoinPlatoon announces the member to the hub and runs the member
// (Bob) side of the pairwise Vehicle-Key establishment over conn. On
// success the returned session owns conn; on error the caller still
// owns it.
func JoinPlatoon(conn transport.Conn, cfg MemberConfig) (*MemberSession, error) {
	if cfg.Scheme == nil || len(cfg.Windows) == 0 {
		return nil, errors.New("group: member needs a scheme and windows")
	}
	if cfg.JoinCopies < 1 {
		cfg.JoinCopies = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = defaultTick
	}
	if cfg.Linger <= 0 {
		cfg.Linger = 5 * cfg.Tick
	}
	rec := obs.OrNop(cfg.Recorder)
	join := encodeFrame(frame{Kind: kindJoin, Member: cfg.Member, Windows: len(cfg.Windows)})
	// Reliable join: a join is a single unacknowledged datagram, so on
	// the contended medium the whole platoon's joins can collide in the
	// ignition window. Retransmit each tick until the hub welcomes us;
	// if the budget runs out, proceed anyway — the hub may have heard
	// the join and only the welcome was lost, in which case the pairwise
	// run below confirms it.
	for attempt, welcomed := 0, false; attempt < cfg.JoinCopies && !welcomed; attempt++ {
		if err := conn.Send(join); err != nil {
			return nil, fmt.Errorf("group: join: %w", err)
		}
		data, err := conn.RecvTimeout(cfg.Tick)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("group: join: %w", err)
		}
		if fr, derr := decodeFrame(data); derr == nil && fr.Kind == kindWelcome {
			welcomed = true
		}
	}
	node := protocol.NewNode(cfg.Scheme, conn, platoonSession(cfg.Member),
		protocol.WithRetryPolicy(cfg.Retry), protocol.WithRecorder(rec))
	outs, err := node.RunBob(cfg.Windows)
	if err != nil {
		return nil, fmt.Errorf("group: member %d: establish: %w", cfg.Member, err)
	}
	// Keep a candidate channel for every derived key, confirmed or not:
	// the hub seals under the first round IT confirmed, and confirmation
	// is not symmetric (Bob's last confirm ack can be lost). The first
	// envelope that opens pins the right channel.
	var candidates []*secure.Channel
	for _, ko := range outs {
		if len(ko.Key) == 0 {
			continue
		}
		ch, err := secure.NewChannel(ko.Key)
		secure.Wipe(ko.Key)
		if err != nil {
			continue
		}
		candidates = append(candidates, ch)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("group: member %d: %w", cfg.Member, ErrNoPairwiseKey)
	}
	state, err := NewMemberState(candidates...)
	if err != nil {
		return nil, err
	}
	return &MemberSession{
		conn:   conn,
		member: cfg.Member,
		state:  state,
		rounds: len(candidates),
		tick:   cfg.Tick,
		linger: cfg.Linger,
		rec:    rec,
	}, nil
}

// Rounds returns how many candidate pairwise keys the establishment
// derived.
func (m *MemberSession) Rounds() int { return m.rounds }

// Epoch returns the member's last accepted epoch.
func (m *MemberSession) Epoch() uint32 { return m.state.Epoch() }

// GroupKey returns a copy of the member's current group key.
func (m *MemberSession) GroupKey() []byte { return m.state.Key() }

// AwaitKey blocks until the next group-key epoch is accepted and
// returns (key copy, epoch). Duplicates of the current epoch are
// re-acked without reopening (the hub retransmits the identical
// ciphertext, which the replay-protected channel would reject);
// envelopes at older epochs are counted as stale drops and ignored.
// It fails with ErrSessionEnded on a hub bye, transport.ErrTimeout
// once wait's worth of idle ticks have passed, or the conn's error
// when it dies. A wait ≤ 0 never times out: the session end (bye),
// the link dying, or a key are the only exits. That is the correct
// mode on a lockstep medium, where the virtual clock can run
// arbitrarily far ahead of the hub's wall-scheduled control plane
// between epochs — an idle-tick budget there turns scheduling noise
// into spurious member deaths, while event-driven exits keep every
// outcome schedule-independent.
func (m *MemberSession) AwaitKey(wait time.Duration) ([]byte, uint32, error) {
	budget, forever := ticks(wait, m.tick), wait <= 0
	for forever || budget > 0 {
		data, err := m.conn.RecvTimeout(m.tick)
		if errors.Is(err, transport.ErrTimeout) {
			if !forever {
				budget--
			}
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("group: await key: %w", err)
		}
		fr, err := decodeFrame(data)
		if err != nil {
			continue // late protocol retransmits share the conn
		}
		switch fr.Kind {
		case kindBye:
			return nil, 0, ErrSessionEnded
		case kindKey:
			current := m.state.Epoch()
			if fr.Epoch == current && current > 0 {
				m.ack(current) // retransmit of the accepted envelope: the ack was lost
				continue
			}
			if fr.Epoch < current {
				m.rec.Add(obs.GroupStaleDrops, 1)
				continue
			}
			key, err := m.state.Accept(Envelope{MemberID: memberName(m.member), Epoch: fr.Epoch, Sealed: fr.Sealed})
			if err != nil {
				if errors.Is(err, ErrStaleEpoch) {
					m.rec.Add(obs.GroupStaleDrops, 1)
				}
				continue
			}
			m.ack(fr.Epoch)
			m.rec.Add(obs.GroupKeysAccepted, 1)
			return key, fr.Epoch, nil
		}
	}
	return nil, 0, fmt.Errorf("group: await key: %w", transport.ErrTimeout)
}

// ack sends an epoch acknowledgement (best-effort; the hub retransmits
// the envelope if the ack is lost).
func (m *MemberSession) ack(epoch uint32) {
	_ = m.conn.Send(encodeFrame(frame{Kind: kindAck, Member: m.member, Epoch: epoch}))
}

// Leave departs the platoon in two phases, both on the conn's clock:
// it lingers briefly to re-ack any retransmitted envelope (so a lost
// ack is repaired rather than becoming a phantom fan-out failure),
// then announces the departure and retransmits the leave each tick
// until the hub's bye confirms it was processed. Only then does the
// conn close — a shared-fate transport close must never be the hub's
// first notice of a departure, because a closed link's endpoint is
// invisible to a lockstep scheduler and its queued frames drain at
// wall-clock mercy.
func (m *MemberSession) Leave() error {
	for budget := ticks(m.linger, m.tick); budget > 0; {
		data, err := m.conn.RecvTimeout(m.tick)
		if errors.Is(err, transport.ErrTimeout) {
			budget--
			continue
		}
		if err != nil {
			return m.Close()
		}
		fr, err := decodeFrame(data)
		if err != nil {
			continue
		}
		if fr.Kind == kindBye {
			return m.Close()
		}
		if fr.Kind == kindKey && fr.Epoch == m.state.Epoch() && fr.Epoch > 0 {
			m.ack(fr.Epoch)
		}
	}
	leave := encodeFrame(frame{Kind: kindLeave, Member: m.member})
	for budget := ticks(m.linger, m.tick); budget > 0; budget-- {
		if err := m.conn.Send(leave); err != nil {
			break
		}
		data, err := m.conn.RecvTimeout(m.tick)
		if errors.Is(err, transport.ErrTimeout) {
			continue // resend the leave
		}
		if err != nil {
			break // link died: the hub has dropped us
		}
		if fr, derr := decodeFrame(data); derr == nil && fr.Kind == kindBye {
			break
		}
	}
	return m.Close()
}

// Close wipes the member's key state and closes the conn.
func (m *MemberSession) Close() error {
	m.state.Close()
	return m.conn.Close()
}

// ---------------------------------------------------------------------
// One-shot platoon driver.
// ---------------------------------------------------------------------

// waiter is the optional conn-time sleep a lora conn offers; Drive
// uses it to stagger member ignition on a shared medium.
type waiter interface{ Wait(d time.Duration) error }

// DriveConfig configures Drive, the canonical platoon run every caller
// (the platoon experiment, vkload, the public API, the e2e tests)
// shares: listen, dial every member in a fixed order, establish all
// pairwise keys concurrently, rekey, let the configured leavers
// depart, rekey the survivors, and tear down.
type DriveConfig struct {
	// Endpoint is the transport endpoint the hub listens on and every
	// member dials (tcp://, mem://, lora://…). Listen/Dial override it.
	Endpoint string
	// Listen/Dial, when both set, replace the endpoint resolution — the
	// platoon experiment passes a pre-built lockstep medium's ends here.
	Listen func() (transport.Listener, error)
	Dial   func(member uint64) (transport.Conn, error)
	// Members is the platoon size (hub excluded).
	Members int
	// Leavers marks members that depart after accepting the first group
	// key, triggering the churn rekey.
	Leavers map[uint64]bool
	// Seed roots the drive's rng sub-streams (member ignition jitter,
	// per-epoch rekey entropy).
	Seed int64
	// Hub configures the hub end; Hub.Resolve is required.
	Hub HubConfig
	// Member supplies each member's config (scheme clone + Bob windows).
	Member func(member uint64) (MemberConfig, error)
	// KeyWait bounds each member's wait for the next epoch, in conn
	// time. ≤ 0 (the default) waits indefinitely — the event-driven
	// mode a lockstep medium requires (see MemberSession.AwaitKey);
	// Drive guarantees liveness by closing every conn once the hub's
	// control phase ends. A positive wait must cover the other
	// members' whole establishment phase, which precedes the first
	// rekey.
	KeyWait time.Duration
	// LeaveWait is the wall-clock failsafe for the hub's churn wait
	// (default 60s; the departures it counts are event-driven).
	LeaveWait time.Duration
}

// DriveResult is one platoon run's accounting, built only from
// schedule-independent quantities — membership counts, epochs, key
// digests — never medium timing, so lockstep runs compare byte-for-
// byte across parallelism levels.
type DriveResult struct {
	// Established and Failed partition the members by pairwise outcome.
	Established []uint64
	Failed      []uint64
	// Rekeys records each rekey wave's fan-out accounting.
	Rekeys []RekeyOutcome
	// LeavesSeen is how many departures the hub processed.
	LeavesSeen int
	// FinalEpoch and HubDigest snapshot the hub's schedule at teardown.
	FinalEpoch uint32
	HubDigest  string
	// Accepted maps epoch → member → group-key digest, as observed by
	// the members themselves.
	Accepted map[uint32]map[uint64]string
}

// Drive runs one complete platoon session and returns its accounting.
// Dials happen serially in member order before any session goroutine
// starts, so on a lockstep lora medium the device creation order — and
// with it every draw from the medium's seed — is schedule-independent.
func Drive(cfg DriveConfig) (DriveResult, error) {
	if cfg.Members <= 0 {
		return DriveResult{}, errors.New("group: drive needs at least one member")
	}
	if cfg.Member == nil {
		return DriveResult{}, errors.New("group: drive needs a Member config callback")
	}
	if cfg.LeaveWait <= 0 {
		cfg.LeaveWait = 60 * time.Second
	}
	// Resolve every member config before the network ignites: window
	// synthesis is wall-clock compute, and in the medium's emulation
	// mode a device doing compute outside a medium operation is
	// invisible to the scheduler — the virtual clock (and with it the
	// hub's join budget) would run hundreds of seconds ahead while the
	// members are still building their windows. Under lockstep the
	// order is irrelevant (the clock freezes either way), so resolving
	// up front is correct in both modes.
	mcs := make([]MemberConfig, cfg.Members)
	for i := range mcs {
		mc, err := cfg.Member(uint64(i))
		if err != nil {
			return DriveResult{}, err
		}
		mc.Member = uint64(i)
		mcs[i] = mc
	}

	listen, dial := cfg.Listen, cfg.Dial
	if listen == nil || dial == nil {
		ep := cfg.Endpoint
		listen = func() (transport.Listener, error) { return transport.Listen(ep) }
		dial = func(uint64) (transport.Conn, error) { return transport.Dial(ep) }
	}
	l, err := listen()
	if err != nil {
		return DriveResult{}, err
	}
	defer func() { _ = l.Close() }()
	conns := make([]transport.Conn, cfg.Members)
	for i := range conns {
		conns[i], err = dial(uint64(i))
		if err != nil {
			for _, c := range conns {
				if c != nil {
					_ = c.Close()
				}
			}
			return DriveResult{}, err
		}
	}
	hs, err := NewHubSession(cfg.Hub)
	if err != nil {
		for _, c := range conns {
			_ = c.Close()
		}
		return DriveResult{}, err
	}
	defer func() { _ = hs.Close() }()

	res := DriveResult{Accepted: make(map[uint32]map[uint64]string)}
	var resMu sync.Mutex
	record := func(epoch uint32, member uint64, key []byte) {
		digest := KeyDigest(key)
		resMu.Lock()
		if res.Accepted[epoch] == nil {
			res.Accepted[epoch] = make(map[uint64]string)
		}
		res.Accepted[epoch][member] = digest
		resMu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Members; i++ {
		member, conn := uint64(i), conns[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w, ok := conn.(waiter); ok {
				// Staggered ignition on a shared medium, one rng
				// sub-stream per member (the contention experiments'
				// jitter discipline).
				jit := rng.Stream(cfg.Seed, "group/platoon/jitter", int(member)).Uniform(0, 2)
				if err := w.Wait(time.Duration(jit * float64(time.Second))); err != nil {
					_ = conn.Close()
					return
				}
			}
			ms, err := JoinPlatoon(conn, mcs[member])
			if err != nil {
				_ = conn.Close()
				return
			}
			leaver := cfg.Leavers[member]
			for {
				key, epoch, err := ms.AwaitKey(cfg.KeyWait)
				if err != nil {
					_ = ms.Close()
					return
				}
				record(epoch, member, key)
				secure.Wipe(key)
				if leaver {
					_ = ms.Leave()
					return
				}
			}
		}()
	}

	// finish tears the session down on every exit path: hub byes first,
	// then a sweep over every member conn — members wait for the next
	// epoch indefinitely by default, so a conn that outlives the hub's
	// control phase (a failed establishment, an early error) would
	// strand its goroutine forever.
	finish := func() {
		_ = hs.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		wg.Wait()
	}

	outs, err := hs.Establish(l, cfg.Members)
	if err != nil {
		finish()
		return res, err
	}
	leavers := 0
	for _, o := range outs {
		if o.Err != nil {
			res.Failed = append(res.Failed, o.Member)
			continue
		}
		res.Established = append(res.Established, o.Member)
		if cfg.Leavers[o.Member] {
			leavers++
		}
	}
	entropy := func(epoch uint32) []byte {
		return rng.Stream(cfg.Seed, "group/platoon/entropy", int(epoch)).Bits(128)
	}
	if len(res.Established) > 0 {
		ro, err := hs.Rekey(entropy(hs.Epoch() + 1))
		if err != nil {
			finish()
			return res, err
		}
		res.Rekeys = append(res.Rekeys, ro)
		if leavers > 0 {
			res.LeavesSeen = hs.AwaitLeaves(leavers, cfg.LeaveWait)
			if hs.Hub().Size() > 0 {
				ro, err := hs.Rekey(entropy(hs.Epoch() + 1))
				if err != nil {
					finish()
					return res, err
				}
				res.Rekeys = append(res.Rekeys, ro)
			}
		}
		res.FinalEpoch = hs.Epoch()
		key := hs.GroupKey()
		res.HubDigest = KeyDigest(key)
		secure.Wipe(key)
	}
	finish()
	return res, nil
}
