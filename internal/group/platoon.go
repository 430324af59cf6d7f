package group

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/server"
	"repro/internal/trace"
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

// ErrJoinRefused reports a join the hub will not serve: a member ID
// outside the platoon or a window count other than the platoon's. The
// hub refuses it before deriving anything, so an unauthenticated join
// costs it no window synthesis.
var ErrJoinRefused = errors.New("group: join refused")

// SharedMediumRetry is the ARQ policy for a shared LoRa medium, in its
// virtual seconds. Most protocol messages fit one fragment, well under
// a second on the air at the medium's SF7, but on a contended channel
// listen-before-talk backoff and duty-cycle waits stretch a round trip
// to seconds, so the initial receive deadline sits above a full round
// trip.
var SharedMediumRetry = protocol.RetryPolicy{
	Timeout:    4 * time.Second,
	MaxTimeout: 16 * time.Second,
	Backoff:    1.6,
	MaxRetries: 8,
}

// profile is a platoon's timing on one kind of transport, in conn time.
type profile struct {
	retry      protocol.RetryPolicy // pairwise establishment ARQ
	tick       time.Duration        // receive-poll granularity
	joinCopies int                  // join transmissions before proceeding unwelcomed
}

var (
	// pointToPoint fits mem/tcp/udp links, whose round trips take
	// milliseconds of wall time.
	pointToPoint = profile{
		retry:      protocol.RetryPolicy{Timeout: 50 * time.Millisecond, MaxRetries: 8},
		tick:       20 * time.Millisecond,
		joinCopies: 1,
	}
	// sharedMedium fits a lora medium: one protocol message is a
	// multi-fragment burst of a second or two on the air, and the whole
	// platoon's joins collide in the ignition window.
	sharedMedium = profile{retry: SharedMediumRetry, tick: 2 * time.Second, joinCopies: 8}
)

// Fixed values of the platoon schedule.
const (
	// defaultWindows is the probing-window count per member when
	// DriveConfig.Windows is unset: two reconciliation rounds, so a
	// single failed round does not sink an establishment.
	defaultWindows = 16
	// joinWait bounds the hub's wait for a join on an accepted conn.
	joinWait = 2 * time.Minute
	// ackTicks is the retransmit interval of an unacknowledged rekey
	// envelope, in ticks.
	ackTicks = 4
	// ackRetries is how many times an unacknowledged envelope is
	// retransmitted before the member is marked failed.
	ackRetries = 6
	// lingerTicks is how long a leaving member keeps re-acking
	// duplicate envelopes, and then how many times it sends its leave.
	lingerTicks = 5
	// leaveWait is the wall-clock failsafe for the hub's churn wait;
	// the departures it counts are event-driven.
	leaveWait = 60 * time.Second
)

// memberName is the hub-side registry ID for a wire member.
func memberName(member uint64) string { return strconv.FormatUint(member, 10) }

// platoonSession is the protocol session identifier both sides of a
// member's pairwise establishment use.
func platoonSession(member uint64) string { return fmt.Sprintf("vk/platoon/%d", member) }

// ---------------------------------------------------------------------
// Hub side.
// ---------------------------------------------------------------------

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

// hubSession drives the hub end of a platoon over a transport listener:
// concurrent pairwise establishment, rekey fan-out with per-member
// acknowledgement, and churn bookkeeping.
type hubSession struct {
	cfg  DriveConfig // normalized by Drive
	prof profile
	hub  *Hub
	rec  obs.Recorder

	mu     sync.Mutex
	links  map[string]*memberLink
	closed bool

	rekeyMu sync.Mutex // serializes fan-outs: one wave on the wire at a time
	leaves  chan uint64
	loops   sync.WaitGroup
}

func newHubSession(cfg DriveConfig, prof profile) *hubSession {
	return &hubSession{
		cfg:    cfg,
		prof:   prof,
		hub:    NewHub(WithRecorder(cfg.Recorder)),
		rec:    cfg.Recorder,
		links:  make(map[string]*memberLink),
		leaves: make(chan uint64, 4096),
	}
}

// establishOutcome reports one accepted conn's pairwise establishment.
type establishOutcome struct {
	member uint64
	named  bool  // a join announced member, even one the hub refused
	err    error // nil when the member joined the group
}

// establish accepts n conns from l and runs the pairwise Vehicle-Key
// protocol with each concurrently — every accepted conn gets its own
// establishment goroutine writing only its own outcome slot. Members
// whose run confirms at least one key join the hub; their conns move
// under a link loop that serves acks and leave events. Outcomes are
// returned sorted by member ID.
func (s *hubSession) establish(l transport.Listener, n int) ([]establishOutcome, error) {
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
	outcomes := make([]establishOutcome, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = s.establishOne(c)
		}()
	}
	wg.Wait()
	sort.SliceStable(outcomes, func(a, b int) bool { return outcomes[a].member < outcomes[b].member })
	return outcomes, nil
}

// establishOne runs one member's join + pairwise establishment and, on
// success, registers the member and hands the conn to its link loop.
// On failure the conn is closed, which also unblocks the member side.
func (s *hubSession) establishOne(conn transport.Conn) establishOutcome {
	started := time.Now()
	member, named, err := s.awaitJoin(conn)
	fail := func(err error) establishOutcome {
		_ = conn.Close()
		s.rec.Add(groupEstablishFailed, 1)
		return establishOutcome{member: member, named: named, err: err}
	}
	if err != nil {
		return fail(err)
	}
	aliceWin, _, err := server.SessionWindowsFor(s.cfg.Scenario, s.cfg.Template.Cfg, s.cfg.Seed, member, s.cfg.Windows, trace.Alice)
	if err != nil {
		return fail(fmt.Errorf("group: member %d: %w", member, err))
	}
	node := protocol.NewNode(s.cfg.Template.Clone(), conn, platoonSession(member),
		protocol.WithRetryPolicy(s.prof.retry), protocol.WithRecorder(s.rec))
	outs, err := node.RunAlice(aliceWin)
	if err != nil {
		return fail(fmt.Errorf("group: member %d: establish: %w", member, err))
	}
	joined := false
	for _, ko := range outs {
		if !ko.Confirmed {
			continue
		}
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
	return establishOutcome{member: member, named: true}
}

// awaitJoin reads frames off a fresh conn until a join arrives, within
// the join tick budget, and returns the joining member's ID; named
// reports whether a join arrived at all. Non-join deliveries (join
// copies on lossy links, early protocol traffic) are skipped. A join
// from outside the platoon, or announcing a window count other than
// the platoon's, is refused unwelcomed, with the member it announced.
func (s *hubSession) awaitJoin(conn transport.Conn) (member uint64, named bool, err error) {
	for budget := int(joinWait / s.prof.tick); budget > 0; {
		data, err := conn.RecvTimeout(s.prof.tick)
		if errors.Is(err, transport.ErrTimeout) {
			budget--
			continue
		}
		if err != nil {
			return 0, false, fmt.Errorf("group: await join: %w", err)
		}
		fr, err := decodeFrame(data)
		if err != nil || fr.Kind != kindJoin {
			continue
		}
		if fr.Member >= uint64(s.cfg.Members) || fr.Windows != s.cfg.Windows {
			return fr.Member, true, fmt.Errorf("%w: member %d announcing %d windows (platoon: %d members, %d windows)",
				ErrJoinRefused, fr.Member, fr.Windows, s.cfg.Members, s.cfg.Windows)
		}
		// Welcome the member so it stops retransmitting its join and
		// starts the pairwise run. A lost welcome is repaired by the
		// member's bounded retries; leftover join duplicates are skipped
		// by the protocol layer as ARQ garbage.
		_ = conn.Send(encodeFrame(frame{Kind: kindWelcome, Member: fr.Member}))
		return fr.Member, true, nil
	}
	return 0, false, errors.New("group: no join before deadline")
}

// linkLoop owns a member's conn after establishment. It is the only
// goroutine touching the conn: it delivers rekey envelopes handed over
// via cmds (retransmitting the identical cached ciphertext every
// ackTicks of conn time until the member acks the epoch), routes leave
// frames and dead conns into departure events, and sends the session
// bye once the hub closes.
func (s *hubSession) linkLoop(l *memberLink) {
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
			if attempts > ackRetries {
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
		data, err := l.conn.RecvTimeout(s.prof.tick)
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
// the conn, and a departure event for awaitLeaves.
func (s *hubSession) dropMember(l *memberLink) {
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

func (s *hubSession) isClosed() bool {
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

// rekey derives the next epoch's group key and fans the sealed
// envelopes out to every member's link loop concurrently, returning
// once each target has acked, departed, or exhausted its retry budget.
// Waves are serialized, so each conn carries at most one outstanding
// envelope.
func (s *hubSession) rekey(entropy []byte) (RekeyOutcome, error) {
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

// awaitLeaves blocks until n departure events have arrived (counted
// from the session start; events are buffered) or the leaveWait
// wall-clock failsafe expires, and returns how many it saw.
func (s *hubSession) awaitLeaves(n int) int {
	got := 0
	timer := time.NewTimer(leaveWait)
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

// close ends the platoon session: each link loop sends a best-effort
// bye and exits, conns close, and the group key is wiped. Idempotent.
func (s *hubSession) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
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
}

// ---------------------------------------------------------------------
// Member side.
// ---------------------------------------------------------------------

// memberEnd is one member's state resolved before ignition: its scheme
// clone and Bob-side probing windows.
type memberEnd struct {
	scheme  pipeline.Scheme
	windows [][]float64
}

// memberSession is an established member following the hub's epoch
// schedule. It owns the conn; all methods must be called from one
// goroutine at a time.
type memberSession struct {
	conn   transport.Conn
	member uint64
	state  *MemberState
	tick   time.Duration
	rec    obs.Recorder
}

// joinPlatoon announces the member to the hub and runs the member
// (Bob) side of the pairwise Vehicle-Key establishment over conn. On
// success the returned session owns conn; on error the caller still
// owns it.
func joinPlatoon(conn transport.Conn, member uint64, end memberEnd, prof profile, rec obs.Recorder) (*memberSession, error) {
	join := encodeFrame(frame{Kind: kindJoin, Member: member, Windows: len(end.windows)})
	// Reliable join: a join is a single unacknowledged datagram, so on
	// the contended medium the whole platoon's joins can collide in the
	// ignition window. Retransmit each tick until the hub welcomes us;
	// if the budget runs out, proceed anyway — the hub may have heard
	// the join and only the welcome was lost, in which case the pairwise
	// run below confirms it.
	for attempt, welcomed := 0, false; attempt < prof.joinCopies && !welcomed; attempt++ {
		if err := conn.Send(join); err != nil {
			return nil, fmt.Errorf("group: join: %w", err)
		}
		data, err := conn.RecvTimeout(prof.tick)
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
	node := protocol.NewNode(end.scheme, conn, platoonSession(member),
		protocol.WithRetryPolicy(prof.retry), protocol.WithRecorder(rec))
	outs, err := node.RunBob(end.windows)
	if err != nil {
		return nil, fmt.Errorf("group: member %d: establish: %w", member, err)
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
		return nil, fmt.Errorf("group: member %d: %w", member, ErrNoPairwiseKey)
	}
	state, err := NewMemberState(candidates...)
	if err != nil {
		return nil, err
	}
	return &memberSession{conn: conn, member: member, state: state, tick: prof.tick, rec: rec}, nil
}

// awaitKey blocks until the next group-key epoch is accepted and
// returns (key copy, epoch). Duplicates of the current epoch are
// re-acked without reopening (the hub retransmits the identical
// ciphertext, which the replay-protected channel would reject);
// envelopes at older epochs are counted as stale drops and ignored.
// It fails with ErrSessionEnded on a hub bye, or with the conn's error
// when it dies; it never times out. That is the correct mode on a
// lockstep medium, where the virtual clock can run arbitrarily far
// ahead of the hub's wall-scheduled control plane between epochs — an
// idle-tick budget there turns scheduling noise into spurious member
// deaths, while event-driven exits keep every outcome
// schedule-independent. Drive's teardown closes every conn, which
// bounds the wait.
func (m *memberSession) awaitKey() ([]byte, uint32, error) {
	for {
		data, err := m.conn.RecvTimeout(m.tick)
		if errors.Is(err, transport.ErrTimeout) {
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
}

// ack sends an epoch acknowledgement (best-effort; the hub retransmits
// the envelope if the ack is lost).
func (m *memberSession) ack(epoch uint32) {
	_ = m.conn.Send(encodeFrame(frame{Kind: kindAck, Member: m.member, Epoch: epoch}))
}

// leave departs the platoon in two phases, both on the conn's clock:
// it lingers briefly to re-ack any retransmitted envelope (so a lost
// ack is repaired rather than becoming a phantom fan-out failure),
// then announces the departure and retransmits the leave each tick
// until the hub's bye confirms it was processed. Only then does the
// conn close — a shared-fate transport close must never be the hub's
// first notice of a departure, because a closed link's endpoint is
// invisible to a lockstep scheduler and its queued frames drain at
// wall-clock mercy.
func (m *memberSession) leave() {
	for budget := lingerTicks; budget > 0; {
		data, err := m.conn.RecvTimeout(m.tick)
		if errors.Is(err, transport.ErrTimeout) {
			budget--
			continue
		}
		if err != nil {
			m.close()
			return
		}
		fr, err := decodeFrame(data)
		if err != nil {
			continue
		}
		if fr.Kind == kindBye {
			m.close()
			return
		}
		if fr.Kind == kindKey && fr.Epoch == m.state.Epoch() && fr.Epoch > 0 {
			m.ack(fr.Epoch)
		}
	}
	leave := encodeFrame(frame{Kind: kindLeave, Member: m.member})
	for budget := lingerTicks; budget > 0; budget-- {
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
	m.close()
}

// close wipes the member's key state and closes the conn.
func (m *memberSession) close() {
	m.state.Close()
	_ = m.conn.Close()
}

// ---------------------------------------------------------------------
// The platoon driver.
// ---------------------------------------------------------------------

// waiter is the optional conn-time sleep a lora conn offers. Drive
// uses it to tell a shared medium from a point-to-point link, and to
// stagger member ignition on one.
type waiter interface{ Wait(d time.Duration) error }

// DriveConfig describes one platoon for Drive, the platoon run every
// caller (the platoon experiment, vkload, the public API, the e2e
// tests) shares: listen, dial every member in a fixed order, establish
// all pairwise keys concurrently, rekey, let the leavers depart, rekey
// the survivors, and tear down.
type DriveConfig struct {
	// Template is the scheme every end runs; each end gets its own
	// Clone, so the template itself never runs a round.
	Template *core.System
	// Scenario, Seed and the template's configuration derive each
	// member's session windows (server.SessionWindowsFor, as the fleet
	// server does): the hub keeps the Alice side, the member the Bob
	// side. Seed also roots the drive's own rng sub-streams (member
	// ignition jitter, per-epoch rekey entropy).
	Scenario trace.Scenario
	Seed     int64
	// Windows is each member's probing-window count (default 16, two
	// reconciliation rounds). The hub refuses a join announcing any
	// other count.
	Windows int
	// Members is the platoon size, hub excluded; member IDs are
	// [0, Members), and the hub refuses a join from outside that range.
	Members int
	// Leavers marks members that depart after accepting the first group
	// key, triggering the churn rekey.
	Leavers map[uint64]bool
	// Listen opens the hub's listener and Dial each member's conn (the
	// platoon experiment passes a pre-built lockstep medium's ends). A
	// conn that can wait in conn time (a lora conn) selects the
	// shared-medium timing profile, any other the point-to-point one.
	Listen func() (transport.Listener, error)
	Dial   func(member uint64) (transport.Conn, error)
	// Retry is the pairwise establishment ARQ policy (zero: the
	// profile's, SharedMediumRetry on a shared medium).
	Retry protocol.RetryPolicy
	// Recorder receives the vk_group_* and protocol metrics (nil: none).
	Recorder obs.Recorder
}

// DriveResult is one platoon run's accounting, built only from
// schedule-independent quantities — membership counts, epochs, key
// digests — never medium timing, so lockstep runs compare byte-for-
// byte across parallelism levels.
type DriveResult struct {
	// Established and Failed partition the members whose joins arrived
	// by pairwise outcome; a refused join's announced ID counts as
	// failed. Unjoined counts accepted conns that never announced a
	// member (no join before the deadline, or a dead conn).
	Established []uint64
	Failed      []uint64
	Unjoined    int `json:",omitempty"`
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

// tally sorts establishment outcomes into Established, Failed and
// Unjoined.
func (res *DriveResult) tally(outs []establishOutcome) {
	for _, o := range outs {
		switch {
		case !o.named:
			res.Unjoined++
		case o.err != nil:
			res.Failed = append(res.Failed, o.member)
		default:
			res.Established = append(res.Established, o.member)
		}
	}
}

// Drive runs one complete platoon session and returns its accounting.
// Dials happen serially in member order before any session goroutine
// starts, so on a lockstep lora medium the device creation order — and
// with it every draw from the medium's seed — is schedule-independent.
func Drive(cfg DriveConfig) (DriveResult, error) {
	switch {
	case cfg.Members <= 0:
		return DriveResult{}, errors.New("group: drive needs at least one member")
	case cfg.Template == nil:
		return DriveResult{}, errors.New("group: drive needs a template scheme")
	case cfg.Listen == nil || cfg.Dial == nil:
		return DriveResult{}, errors.New("group: drive needs Listen and Dial")
	}
	if cfg.Windows <= 0 {
		cfg.Windows = defaultWindows
	}
	cfg.Recorder = obs.OrNop(cfg.Recorder)
	// Derive every member's end before the network ignites: window
	// synthesis is wall-clock compute, and in the medium's emulation
	// mode a device doing compute outside a medium operation is
	// invisible to the scheduler — the virtual clock (and with it the
	// hub's join budget) would run hundreds of seconds ahead while the
	// members are still building their windows. Under lockstep the
	// order is irrelevant (the clock freezes either way), so deriving
	// up front is correct in both modes.
	ends := make([]memberEnd, cfg.Members)
	for i := range ends {
		_, bob, err := server.SessionWindowsFor(cfg.Scenario, cfg.Template.Cfg, cfg.Seed, uint64(i), cfg.Windows, trace.Bob)
		if err != nil {
			return DriveResult{}, err
		}
		ends[i] = memberEnd{scheme: cfg.Template.Clone(), windows: bob}
	}

	l, err := cfg.Listen()
	if err != nil {
		return DriveResult{}, err
	}
	defer func() { _ = l.Close() }()
	conns := make([]transport.Conn, cfg.Members)
	for i := range conns {
		conns[i], err = cfg.Dial(uint64(i))
		if err != nil {
			for _, c := range conns {
				if c != nil {
					_ = c.Close()
				}
			}
			return DriveResult{}, err
		}
	}
	prof := pointToPoint
	if _, shared := conns[0].(waiter); shared {
		prof = sharedMedium
	}
	if (cfg.Retry != protocol.RetryPolicy{}) {
		prof.retry = cfg.Retry
	}
	hs := newHubSession(cfg, prof)
	defer hs.close()

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
			ms, err := joinPlatoon(conn, member, ends[member], prof, cfg.Recorder)
			if err != nil {
				_ = conn.Close()
				return
			}
			leaver := cfg.Leavers[member]
			for {
				key, epoch, err := ms.awaitKey()
				if err != nil {
					ms.close()
					return
				}
				record(epoch, member, key)
				secure.Wipe(key)
				if leaver {
					ms.leave()
					return
				}
			}
		}()
	}

	// finish tears the session down on every exit path: hub byes first,
	// then a sweep over every member conn — members wait for the next
	// epoch indefinitely, so a conn that outlives the hub's control
	// phase (a failed establishment, an early error) would strand its
	// goroutine forever.
	finish := func() {
		hs.close()
		for _, c := range conns {
			_ = c.Close()
		}
		wg.Wait()
	}

	outs, err := hs.establish(l, cfg.Members)
	if err != nil {
		finish()
		return res, err
	}
	res.tally(outs)
	leavers := 0
	for _, m := range res.Established {
		if cfg.Leavers[m] {
			leavers++
		}
	}
	entropy := func(epoch uint32) []byte {
		return rng.Stream(cfg.Seed, "group/platoon/entropy", int(epoch)).Bits(128)
	}
	if len(res.Established) > 0 {
		ro, err := hs.rekey(entropy(hs.hub.Epoch() + 1))
		if err != nil {
			finish()
			return res, err
		}
		res.Rekeys = append(res.Rekeys, ro)
		if leavers > 0 {
			res.LeavesSeen = hs.awaitLeaves(leavers)
			if hs.hub.Size() > 0 {
				ro, err := hs.rekey(entropy(hs.hub.Epoch() + 1))
				if err != nil {
					finish()
					return res, err
				}
				res.Rekeys = append(res.Rekeys, ro)
			}
		}
		res.FinalEpoch = hs.hub.Epoch()
		key := hs.hub.GroupKey()
		res.HubDigest = KeyDigest(key)
		secure.Wipe(key)
	}
	finish()
	return res, nil
}
