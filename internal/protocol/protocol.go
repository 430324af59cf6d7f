// Package protocol runs the Vehicle-Key key-establishment message flow
// between two real endpoints over a transport.Conn:
//
//	Bob  → Alice  KEPT      Bob's guard-band kept sample indices (window w)
//	Alice → Bob   FINAL     the confidence-intersected final indices
//	Bob  → Alice  SYNDROME  the autoencoder code vector y_Bob + MAC (round r)
//	Alice → Bob   CONFIRM   HMAC key confirmation
//	Bob  → Alice  RESULT    confirm/deny
//	Bob  ⇄ Alice  DONE      end-of-session handshake (total round count)
//
// Both sides accumulate kept bits across rounds and emit a 128-bit
// session key whenever a reconciliation block completes and confirms.
// Syndromes are authenticated with a MAC keyed by the sender's
// Bloom-domain key (Sec. IV-C's MITM defence), and every message carries
// a session ID and a sequence number checked against a sliding replay
// window (replay defence).
//
// # Loss tolerance
//
// The paper's protocol runs over lossy LoRa links (Sec. IV: rounds simply
// retry), so the transport is treated as unreliable. Every expected
// message is awaited under a per-attempt timeout; on timeout the sender
// retransmits the message that elicits it, with exponential backoff, up
// to RetryPolicy.MaxRetries times. Retransmits are fresh envelopes (new
// sequence number, identical content), so the replay window never blocks
// them; the receiver deduplicates semantically by (type, window/round)
// and answers a retransmitted request by re-sending its cached reply.
// A window or round that exhausts its retries is abandoned — it counts as
// a failed outcome — and the session resynchronizes on the next one
// instead of erroring out. Bob's syndromes carry the ordered list of
// windows (and their bit counts) that feed his key stream, so Alice
// reconstructs exactly the block Bob reconciled even when some of her
// windows never made it into his stream.
package protocol

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/secure"
	"repro/internal/transport"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgKept MsgType = iota + 1
	MsgFinal
	MsgSyndrome
	MsgConfirm
	MsgResult
	MsgDone
)

// Envelope is the wire format.
//
//vklint:wire -- decoded from untrusted peers; treat field reads as hostile
type Envelope struct {
	Type    MsgType
	Session string
	Seq     uint64

	Window   int       // probing-window index for MsgKept/MsgFinal
	Indices  []int     // MsgKept, MsgFinal
	Code     []float64 // MsgSyndrome
	MAC      []byte    // MsgSyndrome, MsgConfirm
	Round    int       // block counter for MsgSyndrome/Confirm/Result; total for MsgDone
	Accepted bool      // MsgResult

	// Windows/Counts (MsgSyndrome) describe Bob's key stream: the ordered
	// window indices whose bits were appended, and how many bits each
	// contributed, so Alice can assemble the identical block even when
	// some windows were abandoned on one side.
	Windows []int
	Counts  []int
}

// Wire-format hard limits: decode rejects anything beyond these instead
// of letting a corrupted or hostile envelope drive allocations.
const (
	// MaxEnvelopeBytes bounds one encoded envelope.
	MaxEnvelopeBytes = 1 << 20
	// MaxIndices bounds the Indices, Windows, and Counts lists.
	MaxIndices = 1 << 14
	// MaxCode bounds the syndrome code vector.
	MaxCode = 1 << 14
	// MaxMACBytes bounds the MAC field.
	MaxMACBytes = 64
	// MaxRounds bounds the block counter a peer may announce (Round on
	// MsgSyndrome/Confirm/Result, the total on MsgDone). Without it a
	// hostile DONE drives the receive loops' failure back-fill — and the
	// per-round bookkeeping it allocates — to any length the peer picks.
	MaxRounds = 1 << 14
)

// envelopeMagic names protocol envelopes on the wire; server hellos and
// group frames share conns with them under their own magics.
const envelopeMagic = 0x564b4556 // "VKEV"

// encode writes e in the transport wire layout: a CRC32 so that link
// corruption is detected at decode and handled like loss (the sender
// retransmits) instead of leaking altered content into a round, where it
// would only surface as a MAC mismatch and burn the whole round; the
// envelope magic; then the fields in declaration order.
func encode(e Envelope) []byte {
	b := transport.NewWire(envelopeMagic, 64+len(e.Session)+len(e.MAC)+8*len(e.Code)+
		3*(len(e.Indices)+len(e.Windows)+len(e.Counts)))
	b = transport.AppendInt(b, int(e.Type))
	b = transport.AppendString(b, e.Session)
	b = transport.AppendUvarint(b, e.Seq)
	b = transport.AppendInt(b, e.Window)
	b = transport.AppendInts(b, e.Indices)
	b = transport.AppendUvarint(b, uint64(len(e.Code)))
	b = transport.AppendFloat64s(b, e.Code)
	b = transport.AppendBytes(b, e.MAC)
	b = transport.AppendInt(b, e.Round)
	b = transport.AppendBool(b, e.Accepted)
	b = transport.AppendInts(b, e.Windows)
	b = transport.AppendInts(b, e.Counts)
	return transport.SealWire(b)
}

// decode parses one envelope. The list caps are enforced by the reader
// before each list is allocated; the semantic checks follow once every
// byte is consumed.
func decode(data []byte) (Envelope, error) {
	r, err := transport.OpenWire(data, envelopeMagic, MaxEnvelopeBytes)
	if err != nil {
		return Envelope{}, fmt.Errorf("protocol: decode: %w", err)
	}
	e := Envelope{
		Type:     MsgType(r.Int()),
		Session:  r.String(MaxEnvelopeBytes),
		Seq:      r.Uvarint(),
		Window:   r.Int(),
		Indices:  r.Ints(MaxIndices),
		Code:     r.Float64s(MaxCode),
		MAC:      r.Bytes(MaxMACBytes),
		Round:    r.Int(),
		Accepted: r.Bool(),
		Windows:  r.Ints(MaxIndices),
		Counts:   r.Ints(MaxIndices),
	}
	if err := r.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("protocol: decode: %w", err)
	}
	switch {
	case e.Type < MsgKept || e.Type > MsgDone:
		return Envelope{}, fmt.Errorf("protocol: decode: unknown message type %d", e.Type)
	case e.Round < 0 || e.Round > MaxRounds:
		return Envelope{}, fmt.Errorf("protocol: decode: round %d outside [0, %d]", e.Round, MaxRounds)
	case e.Window < 0 || e.Window > MaxIndices:
		return Envelope{}, fmt.Errorf("protocol: decode: window %d outside [0, %d]", e.Window, MaxIndices)
	}
	return e, nil
}

// RetryPolicy configures the per-message timeout/retransmit behavior.
type RetryPolicy struct {
	// Timeout is the initial per-attempt receive deadline.
	Timeout time.Duration
	// MaxTimeout caps the backed-off deadline.
	MaxTimeout time.Duration
	// Backoff multiplies the deadline after each timeout (≥ 1).
	Backoff float64
	// MaxRetries is how many retransmissions are attempted before an
	// exchange is abandoned.
	MaxRetries int
}

// DefaultRetryPolicy suits real (UDP, cross-process) links: generous
// initial deadline, ~8 retransmits with exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 500 * time.Millisecond, MaxTimeout: 4 * time.Second, Backoff: 1.6, MaxRetries: 8}
}

func (p RetryPolicy) normalize() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	if p.MaxTimeout < p.Timeout {
		p.MaxTimeout = 8 * p.Timeout
	}
	if p.Backoff < 1 {
		p.Backoff = d.Backoff
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = d.MaxRetries
	}
	return p
}

func (p RetryPolicy) next(d time.Duration) time.Duration {
	d = time.Duration(float64(d) * p.Backoff)
	if d > p.MaxTimeout {
		d = p.MaxTimeout
	}
	return d
}

// iterCap bounds a receive loop's total iterations (timeouts plus
// garbage/stale deliveries) so a flood of junk cannot spin it forever.
func (p RetryPolicy) iterCap() int { return (p.MaxRetries + 2) * 64 }

// Option configures a Node.
type Option func(*Node)

// WithRetryPolicy overrides the node's timeout/retransmit policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(n *Node) { n.policy = p.normalize() }
}

// WithRecorder routes the node's counters and round-latency
// observations into r; the recorder is the only place a node counts
// what it did. The default is obs.Nop; a node never constructs its own
// recorder (the obsnop lint contract).
func WithRecorder(r obs.Recorder) Option {
	return func(n *Node) { n.rec = obs.OrNop(r) }
}

// Node is one protocol endpoint. It drives any pipeline.Scheme — the
// trained Vehicle-Key system or a registered baseline — through the
// identical message flow; nothing below this struct knows which scheme
// is running.
type Node struct {
	Sys     pipeline.Scheme
	Conn    transport.Conn
	Session string

	policy RetryPolicy
	guard  *secure.WindowGuard
	seq    uint64
	sent   map[msgKey]Envelope // last semantic message per key, for re-replies
	rec    obs.Recorder
}

// msgKey identifies a semantic message independent of retransmission:
// the type plus its window index (KEPT/FINAL) or round (the rest).
type msgKey struct {
	t   MsgType
	idx int
}

func keyOf(e Envelope) msgKey {
	if e.Type == MsgKept || e.Type == MsgFinal {
		return msgKey{e.Type, e.Window}
	}
	return msgKey{e.Type, e.Round}
}

// NewNode wraps a scheme (a trained *core.System, or any other
// pipeline.Scheme) and a connection into an endpoint.
func NewNode(sys pipeline.Scheme, conn transport.Conn, session string, opts ...Option) *Node {
	n := &Node{
		Sys:     sys,
		Conn:    conn,
		Session: session,
		policy:  DefaultRetryPolicy(),
		guard:   secure.NewWindowGuard(64),
		sent:    make(map[msgKey]Envelope),
		rec:     obs.Nop,
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// wipeSent scrubs the retransmit cache: cached SYNDROME/CONFIRM
// envelopes carry key-derived material (code vectors, MACs over the
// Bloom-domain key), and once the session is over nothing may re-request
// them, so they must not linger in dead heap memory. RunBob and RunAlice
// call it on every exit path.
func (n *Node) wipeSent() {
	for k, e := range n.sent {
		secure.Wipe(e.MAC)
		secure.WipeFloats(e.Code)
		delete(n.sent, k)
	}
}

// send transmits a semantic message and caches it so a peer's
// retransmitted request can be answered idempotently.
func (n *Node) send(e Envelope) error {
	n.sent[keyOf(e)] = e
	return n.transmit(e)
}

// transmit stamps a fresh sequence number and writes the envelope. Every
// (re)transmission gets a new sequence number so the peer's replay window
// admits it; deduplication happens semantically, by msgKey.
func (n *Node) transmit(e Envelope) error {
	n.seq++
	e.Session = n.Session
	e.Seq = n.seq
	data := encode(e)
	n.rec.Add(obs.ProtocolSent, 1)
	return n.Conn.Send(data)
}

// resend retransmits the cached semantic message for key, if any.
func (n *Node) resend(k msgKey) {
	if e, ok := n.sent[k]; ok {
		n.rec.Add(obs.ProtocolRetransmits, 1)
		_ = n.transmit(e)
	}
}

// Sentinel errors of the receive path.
var (
	// errGarbage flags an unusable delivery: undecodable, wrong session,
	// or replayed. The receive loops skip it without consuming a retry.
	errGarbage = errors.New("protocol: unusable message")
	// ErrExchangeAbandoned reports an exchange that exhausted its retries.
	ErrExchangeAbandoned = errors.New("protocol: exchange abandoned after retries")
)

// recvEnvelope reads one envelope within the deadline, rejecting
// undecodable data, session mismatches, and replays.
func (n *Node) recvEnvelope(timeout time.Duration) (Envelope, error) {
	data, err := n.Conn.RecvTimeout(timeout)
	if err != nil {
		if errors.Is(err, transport.ErrTimeout) {
			return Envelope{}, transport.ErrTimeout
		}
		return Envelope{}, err
	}
	e, err := decode(data)
	if err != nil {
		n.rec.Add(obs.ProtocolGarbage, 1)
		return Envelope{}, errGarbage
	}
	if e.Session != n.Session {
		n.rec.Add(obs.ProtocolGarbage, 1)
		return Envelope{}, errGarbage
	}
	if err := n.guard.Check("peer:"+e.Session, e.Seq); err != nil {
		n.rec.Add(obs.ProtocolReplayDrops, 1)
		return Envelope{}, errGarbage
	}
	n.rec.Add(obs.ProtocolRecv, 1)
	return e, nil
}

// await drives one lockstep exchange: it waits for the (want, idx)
// message, retransmitting the cached `request` on each timeout with
// backoff, answering stale traffic in between. It fails with
// ErrExchangeAbandoned after MaxRetries timeouts.
func (n *Node) await(want MsgType, idx int, request msgKey) (Envelope, error) {
	timeout := n.policy.Timeout
	timeouts := 0
	for iter := 0; iter < n.policy.iterCap(); iter++ {
		e, err := n.recvEnvelope(timeout)
		switch {
		case err == nil:
		case errors.Is(err, transport.ErrTimeout):
			n.rec.Add(obs.ProtocolTimeouts, 1)
			timeouts++
			if timeouts > n.policy.MaxRetries {
				return Envelope{}, ErrExchangeAbandoned
			}
			n.resend(request)
			timeout = n.policy.next(timeout)
			continue
		case errors.Is(err, errGarbage):
			continue
		default:
			return Envelope{}, err
		}
		if e.Type == want && keyOf(e).idx == idx {
			return e, nil
		}
		n.answerStale(e)
	}
	return Envelope{}, ErrExchangeAbandoned
}

// answerStale handles a well-formed message that is not the one currently
// awaited: a peer retransmitting an already-answered request gets the
// cached reply again; anything else is dropped.
func (n *Node) answerStale(e Envelope) {
	n.rec.Add(obs.ProtocolStale, 1)
	switch e.Type {
	case MsgConfirm:
		// Alice never got (or lost) our RESULT for that round.
		n.resend(msgKey{MsgResult, e.Round})
	case MsgKept:
		n.resend(msgKey{MsgFinal, e.Window})
	case MsgSyndrome:
		n.resend(msgKey{MsgConfirm, e.Round})
	}
}

// KeyOutcome is one established (or failed) key block.
type KeyOutcome struct {
	Key       []byte // 128-bit session key (nil when !Confirmed)
	Confirmed bool
	Round     int
	// Err explains a failed round: a *RoundError wrapping ErrPeerTimeout
	// or ErrConfirmFailed. Nil when Confirmed.
	Err error
}

// sessionSalt derives the round's public salt.
func sessionSalt(session string, round int) []byte {
	return []byte(fmt.Sprintf("vk/%s/%d", session, round))
}

// RunBob drives Bob's side over the measurement windows (his normalized
// arRSSI sequences, one per probing round) and returns the key outcomes,
// one per reconciliation round. Windows and rounds that exhaust their
// retries are abandoned, not fatal; the only hard errors are local
// (quantization) failures. A closed transport ends the run gracefully
// with the outcomes so far.
func (n *Node) RunBob(windows [][]float64) ([]KeyOutcome, error) {
	block := n.Sys.BlockBits()
	bps := n.Sys.SampleBits()
	var buf []byte
	var contributed, counts []int
	var out []KeyOutcome
	round := 0
	// Session teardown scrubs every secret the run accumulated: the
	// unconsumed tail of the bit stream and the retransmit cache.
	defer func() {
		secure.Wipe(buf)
		n.wipeSent()
	}()
	for w, seq := range windows {
		bits, kept, err := n.Sys.BobQuantize(seq)
		if err != nil {
			return out, err
		}
		if err := n.send(Envelope{Type: MsgKept, Window: w, Indices: kept}); err != nil {
			return out, ignoreClosed(err)
		}
		fin, err := n.await(MsgFinal, w, msgKey{MsgKept, w})
		if err != nil {
			if errors.Is(err, ErrExchangeAbandoned) {
				n.rec.Add(obs.ProtocolAbandonedWindows, 1)
				continue
			}
			return out, ignoreClosed(err)
		}
		sel := pipeline.SelectAt(bits, kept, fin.Indices, bps)
		buf = append(buf, sel...)
		contributed = append(contributed, w)
		counts = append(counts, len(sel))
		for len(buf) >= block {
			res, err := n.bobBlock(buf[:block], round, contributed, counts)
			out = append(out, res)
			secure.Wipe(buf[:block]) // round bits are dead once the round resolves
			buf = buf[block:]
			round++
			if err != nil {
				return out, ignoreClosed(err)
			}
		}
	}
	n.finish(round)
	return out, nil
}

// ignoreClosed treats a closed transport as a graceful end of session.
func ignoreClosed(err error) error {
	if errors.Is(err, transport.ErrClosed) {
		return nil
	}
	return err
}

func (n *Node) bobBlock(bits []byte, round int, wins, counts []int) (KeyOutcome, error) {
	//vklint:ignore norand -- round-latency metric only; never feeds randomness or key material
	started := time.Now()
	defer func() {
		n.rec.Observe(obs.ProtocolRoundSeconds, time.Since(started).Seconds())
	}()
	salt := sessionSalt(n.Session, round)
	code, keyImage, err := n.Sys.BobEncode(bits, salt)
	if err != nil {
		return KeyOutcome{Round: round}, err
	}
	mac := secure.MAC(keyImage, floatsToBytes(code))
	secure.Wipe(keyImage) // the scheme's key image is dead once coded and MACed
	env := Envelope{
		Type: MsgSyndrome, Code: code, MAC: mac, Round: round,
		Windows: append([]int(nil), wins...), Counts: append([]int(nil), counts...),
	}
	if err := n.send(env); err != nil {
		return KeyOutcome{Round: round}, err
	}
	conf, err := n.await(MsgConfirm, round, msgKey{MsgSyndrome, round})
	if err != nil {
		if errors.Is(err, ErrExchangeAbandoned) {
			n.rec.Add(obs.ProtocolAbandonedRounds, 1)
			// Cache a denial so Alice's late CONFIRM retries still get a
			// definitive answer and both sides record the round failed.
			n.sent[msgKey{MsgResult, round}] = Envelope{Type: MsgResult, Round: round}
			return KeyOutcome{Round: round, Err: roundErr(round, "confirm", ErrPeerTimeout)}, nil
		}
		return KeyOutcome{Round: round}, err
	}
	// Key the confirmation MAC with a salted one-way image of the block,
	// never the raw bits: a raw-keyed CONFIRM hands a passive eavesdropper
	// an offline verification oracle for key guesses. Equal blocks still
	// produce equal images, so confirmation semantics are unchanged.
	// Enforced by the keyflow analyzer.
	confirmKey := secure.BlockImage(bits, salt)
	expect := secure.MAC(confirmKey, salt)
	secure.Wipe(confirmKey)
	// Constant-time compare: a variable-time check here would let a MITM
	// time CONFIRM verification and forge tags byte by byte.
	accepted := subtle.ConstantTimeCompare(conf.MAC, expect) == 1
	if err := n.send(Envelope{Type: MsgResult, Round: round, Accepted: accepted}); err != nil {
		return KeyOutcome{Round: round}, err
	}
	if !accepted {
		n.rec.Add(obs.ProtocolConfirmFailures, 1)
		return KeyOutcome{Round: round, Err: roundErr(round, "result", ErrConfirmFailed)}, nil
	}
	key, err := n.Sys.Amplify(bits, salt)
	if err != nil {
		return KeyOutcome{Round: round}, err
	}
	n.rec.Add(obs.ProtocolKeysConfirmed, 1)
	return KeyOutcome{Key: key, Confirmed: true, Round: round}, nil
}

// finish runs Bob's end-of-session handshake: announce DONE (with the
// total round count), keep answering late retransmits, and exit once
// Alice acknowledges or the retries run out.
func (n *Node) finish(totalRounds int) {
	if err := n.send(Envelope{Type: MsgDone, Round: totalRounds}); err != nil {
		return
	}
	timeout := n.policy.Timeout
	timeouts := 0
	for iter := 0; iter < n.policy.iterCap(); iter++ {
		e, err := n.recvEnvelope(timeout)
		switch {
		case err == nil:
		case errors.Is(err, transport.ErrTimeout):
			timeouts++
			if timeouts > n.policy.MaxRetries {
				return
			}
			n.resend(msgKey{MsgDone, totalRounds})
			timeout = n.policy.next(timeout)
			continue
		case errors.Is(err, errGarbage):
			continue
		default:
			return
		}
		if e.Type == MsgDone {
			return // Alice's acknowledgement
		}
		n.answerStale(e)
	}
}

// RunAlice drives Alice's side over her measurement windows (aligned with
// Bob's) and returns the key outcomes, one per reconciliation round that
// either side opened. Alice is reactive: she answers whatever arrives,
// deduplicates retransmits, fast-forwards past rounds the peer abandoned,
// and finishes on the DONE handshake (or after a run of idle timeouts).
func (n *Node) RunAlice(windows [][]float64) ([]KeyOutcome, error) {
	block := n.Sys.BlockBits()
	// Precompute the network pass per window up front: replies inside the
	// receive loop must be cheap relative to the peer's retransmit timer.
	pre := make([]pipeline.Round, len(windows))
	for i, w := range windows {
		r, err := n.Sys.AlicePrecompute(w)
		if err != nil {
			return nil, err
		}
		pre[i] = r
	}

	type pendingRound struct {
		final   []byte
		macOK   bool
		started time.Time // syndrome receipt, for round-latency observation
	}
	winBits := make(map[int][]byte)
	pending := make(map[int]*pendingRound)
	outcomes := make(map[int]KeyOutcome)
	// Session teardown scrubs every secret the run accumulated: round keys
	// still pending confirmation, per-window bit slices, and the
	// retransmit cache. Confirmed keys in outcomes belong to the caller.
	defer func() {
		for _, p := range pending {
			secure.Wipe(p.final)
		}
		for _, b := range winBits {
			secure.Wipe(b)
		}
		n.wipeSent()
	}()
	nextRound := 0
	totalRounds := -1
	strikes := 0
	timeout := n.policy.Timeout

	fail := func(r int) {
		if _, seen := outcomes[r]; !seen {
			outcomes[r] = KeyOutcome{Round: r, Err: roundErr(r, "syndrome", ErrPeerTimeout)}
			n.rec.Add(obs.ProtocolAbandonedRounds, 1)
		}
	}

	maxIter := (len(windows) + 4) * n.policy.iterCap()
loop:
	for iter := 0; iter < maxIter; iter++ {
		if totalRounds >= 0 && len(pending) == 0 && nextRound >= totalRounds {
			break
		}
		e, err := n.recvEnvelope(timeout)
		switch {
		case err == nil:
		case errors.Is(err, transport.ErrTimeout):
			n.rec.Add(obs.ProtocolTimeouts, 1)
			strikes++
			if strikes > n.policy.MaxRetries {
				break loop // the peer has gone quiet; keep what we have
			}
			// The only progress Alice can force is re-asking for a lost
			// RESULT; everything else is retransmitted by Bob.
			lowest, found := -1, false
			for r := range pending {
				if !found || r < lowest {
					lowest, found = r, true
				}
			}
			if found {
				n.resend(msgKey{MsgConfirm, lowest})
			}
			timeout = n.policy.next(timeout)
			continue
		case errors.Is(err, errGarbage):
			continue
		default:
			return aliceOutcomes(outcomes, nextRound, totalRounds), ignoreClosed(err)
		}
		strikes = 0
		timeout = n.policy.Timeout

		switch e.Type {
		case MsgKept:
			w := e.Window
			if w < 0 || w >= len(windows) {
				n.rec.Add(obs.ProtocolGarbage, 1)
				continue
			}
			if _, done := winBits[w]; done {
				n.rec.Add(obs.ProtocolStale, 1)
				n.resend(msgKey{MsgFinal, w})
				continue
			}
			bits, final, ok := pre[w].Select(e.Indices)
			if !ok {
				n.rec.Add(obs.ProtocolGarbage, 1) // corrupted announcement; Bob will retry
				continue
			}
			winBits[w] = bits
			if err := n.send(Envelope{Type: MsgFinal, Window: w, Indices: final}); err != nil {
				return aliceOutcomes(outcomes, nextRound, totalRounds), ignoreClosed(err)
			}

		case MsgSyndrome:
			r := e.Round
			if r < nextRound {
				n.rec.Add(obs.ProtocolStale, 1)
				n.resend(msgKey{MsgConfirm, r})
				continue
			}
			if r > MaxRounds {
				// decode already rejects Round > MaxRounds; re-assert it
				// here so the back-fill loop below is locally, visibly
				// bounded (allocbound) even if a new ingress path skips
				// decode's caps.
				n.rec.Add(obs.ProtocolGarbage, 1)
				continue
			}
			// Bob never opens round r+1 before r, so a jump means rounds
			// nextRound..r-1 were lost wholesale; Bob abandoned them too.
			for s := nextRound; s < r; s++ {
				fail(s)
			}
			nextRound = r + 1
			bits, ok := assembleBlock(winBits, e.Windows, e.Counts, r, block)
			if !ok {
				fail(r)
				continue
			}
			salt := sessionSalt(n.Session, r)
			final, keyImage, err := n.Sys.AliceCorrect(bits, e.Code, salt)
			if err != nil {
				// The scheme rejected the code vector (hostile or
				// wrong-length within the wire caps): the round cannot be
				// reconciled. Bob's CONFIRM retries expire on their own.
				n.rec.Add(obs.ProtocolGarbage, 1)
				fail(r)
				continue
			}
			// MAC check: if our corrected key equals Bob's, his MAC
			// verifies under the scheme's key image. A failed MAC means
			// residual mismatch or tampering; both end in rejection
			// (Sec. IV-C).
			macOK := secure.VerifyMAC(keyImage, floatsToBytes(e.Code), e.MAC)
			secure.Wipe(keyImage) // dead once verified; see zeroize invariant
			// CONFIRM is keyed by a one-way image of the corrected block,
			// mirroring Bob's verification; raw `final` must never key a
			// MAC that crosses the wire (keyflow).
			confirmKey := secure.BlockImage(final, salt)
			confirmMAC := secure.MAC(confirmKey, salt)
			secure.Wipe(confirmKey)
			if err := n.send(Envelope{Type: MsgConfirm, MAC: confirmMAC, Round: r}); err != nil {
				fail(r)
				return aliceOutcomes(outcomes, nextRound, totalRounds), ignoreClosed(err)
			}
			//vklint:ignore norand -- round-latency metric only; never feeds randomness or key material
			pending[r] = &pendingRound{final: final, macOK: macOK, started: time.Now()}

		case MsgResult:
			r := e.Round
			p, ok := pending[r]
			if !ok {
				n.rec.Add(obs.ProtocolStale, 1)
				continue
			}
			delete(pending, r)
			n.rec.Observe(obs.ProtocolRoundSeconds, time.Since(p.started).Seconds())
			o := KeyOutcome{Round: r, Err: roundErr(r, "result", ErrConfirmFailed)}
			if e.Accepted && p.macOK {
				if key, err := n.Sys.Amplify(p.final, sessionSalt(n.Session, r)); err == nil {
					o = KeyOutcome{Key: key, Confirmed: true, Round: r}
					n.rec.Add(obs.ProtocolKeysConfirmed, 1)
				}
			}
			if !o.Confirmed {
				n.rec.Add(obs.ProtocolConfirmFailures, 1)
			}
			// The round is resolved either way: its reconciled bits are an
			// expired round key and must not outlive the resolution.
			secure.Wipe(p.final)
			outcomes[r] = o
			// Bob's DONE may have arrived while this round was pending,
			// and its acknowledgement was withheld then: send it now that
			// everything is resolved, since the loop exits next.
			if totalRounds >= 0 && len(pending) == 0 {
				if err := n.send(Envelope{Type: MsgDone, Round: totalRounds}); err != nil {
					return aliceOutcomes(outcomes, nextRound, totalRounds), ignoreClosed(err)
				}
			}

		case MsgDone:
			if e.Round > MaxRounds {
				// Same defense-in-depth as MsgSyndrome: a hostile total
				// must not drive the failure back-fill loop.
				n.rec.Add(obs.ProtocolGarbage, 1)
				continue
			}
			totalRounds = e.Round
			// Syndromes this side never saw are gone for good — and Bob
			// abandoned those rounds himself, or he couldn't have moved on.
			for s := nextRound; s < totalRounds; s++ {
				fail(s)
			}
			if nextRound < totalRounds {
				nextRound = totalRounds
			}
			// Acknowledge only once everything is resolved; otherwise keep
			// Bob in his finish loop so he can answer our CONFIRM retries.
			if len(pending) == 0 {
				if err := n.send(Envelope{Type: MsgDone, Round: e.Round}); err != nil {
					return aliceOutcomes(outcomes, nextRound, totalRounds), ignoreClosed(err)
				}
			}

		default:
			n.rec.Add(obs.ProtocolStale, 1)
		}
	}

	for r := range pending {
		fail(r)
	}
	return aliceOutcomes(outcomes, nextRound, totalRounds), nil
}

// aliceOutcomes flattens the outcome map into a dense, round-ordered
// slice; rounds never resolved appear as failed outcomes.
func aliceOutcomes(outcomes map[int]KeyOutcome, nextRound, totalRounds int) []KeyOutcome {
	total := nextRound
	if totalRounds > total {
		total = totalRounds
	}
	out := make([]KeyOutcome, total)
	for i := range out {
		out[i] = KeyOutcome{Round: i, Err: roundErr(i, "syndrome", ErrPeerTimeout)}
	}
	for r, o := range outcomes {
		if r >= 0 && r < total {
			out[r] = o
		}
	}
	return out
}

// assembleBlock rebuilds the bits of reconciliation round `round` from
// Alice's per-window bit slices, following Bob's announced stream layout
// (window order plus per-window bit counts). It fails — without
// panicking — when a window overlapping the block is missing or its
// local bit count disagrees with Bob's announcement (corrupted FINAL).
func assembleBlock(winBits map[int][]byte, wins, counts []int, round, block int) ([]byte, bool) {
	if len(wins) != len(counts) || round < 0 || block <= 0 {
		return nil, false
	}
	start, end := round*block, (round+1)*block
	out := make([]byte, 0, block)
	off := 0
	for i, w := range wins {
		c := counts[i]
		if c < 0 || c > MaxIndices {
			return nil, false
		}
		lo, hi := max(off, start), min(off+c, end)
		if lo < hi {
			b, ok := winBits[w]
			if !ok || len(b) != c {
				return nil, false
			}
			out = append(out, b[lo-off:hi-off]...)
		}
		off += c
		if off >= end {
			break
		}
	}
	if len(out) != block {
		return nil, false
	}
	return out, true
}

// floatsToBytes is the syndrome MAC input: the code vector in exactly
// the big-endian IEEE-754 bytes that carry Code on the wire.
func floatsToBytes(xs []float64) []byte {
	return transport.AppendFloat64s(make([]byte, 0, 8*len(xs)), xs)
}

// ErrNoKeys reports a run that produced no confirmed keys.
var ErrNoKeys = errors.New("protocol: no confirmed keys")
