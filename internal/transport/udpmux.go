package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// UDPMux promotes the dial-only UDPConn model into a server side: one
// UDP socket shared by many peers, demultiplexed by remote address. The
// first datagram from an unknown address creates a session Conn and
// offers it on the accept backlog; later datagrams from that address are
// delivered to the session's queue. Sends from every session go out the
// shared socket, addressed to that session's peer.
//
// UDP semantics are preserved end to end: a session whose delivery queue
// is full drops the datagram (the ARQ layer retransmits), and when the
// accept backlog is full a *new* peer's datagrams are dropped until a
// slot frees — exactly how an overloaded datagram server sheds load. A
// closed session's address is forgotten, so a late retransmit from that
// peer would be treated as a new connection; the serving layer rejects
// such ghosts when no valid handshake follows.
type UDPMux struct {
	pc *net.UDPConn

	mu       sync.Mutex
	sessions map[string]*muxConn
	backlog  chan *muxConn
	done     chan struct{}
	once     sync.Once
}

// muxQueueDepth is each session's delivery queue length, matching the
// in-memory pair's channel depth.
const muxQueueDepth = 64

// muxBacklog bounds sessions accepted by the mux but not yet taken by
// Accept.
const muxBacklog = 256

// ListenUDPMux binds addr (":0" picks a free port) and starts the
// demultiplexing read loop.
func ListenUDPMux(addr string) (*UDPMux, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	m := &UDPMux{
		pc:       pc,
		sessions: make(map[string]*muxConn),
		backlog:  make(chan *muxConn, muxBacklog),
		done:     make(chan struct{}),
	}
	go m.readLoop()
	return m, nil
}

// readLoop owns the socket's receive side: it routes every datagram to
// its session queue, creating sessions for new peers.
// udpPumpTick bounds one blocking read in the pump, keeping it
// responsive to Close even on platforms where closing the socket does
// not reliably wake a blocked read.
const udpPumpTick = 1 * time.Second

func (m *UDPMux) readLoop() {
	buf := make([]byte, maxDatagram)
	for {
		// Deadline-governed read (netdeadline): a silent fleet must not
		// wedge the demultiplexer goroutine forever.
		_ = m.pc.SetReadDeadline(time.Now().Add(udpPumpTick))
		n, raddr, err := m.pc.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-m.done:
				return
			default:
			}
			continue // deadline tick or transient datagram error; still alive
		}
		msg := make([]byte, n)
		copy(msg, buf[:n])
		key := raddr.String()

		m.mu.Lock()
		mc, known := m.sessions[key]
		if !known {
			mc = &muxConn{mux: m, peer: raddr, key: key, in: make(chan []byte, muxQueueDepth), done: make(chan struct{}), timeout: 5 * time.Second}
			select {
			case m.backlog <- mc:
				m.sessions[key] = mc
			default:
				// Backlog full: shed the new peer. Its retransmits will
				// retry admission once Accept frees a slot.
				m.mu.Unlock()
				continue
			}
		}
		m.mu.Unlock()
		mc.deliver(msg)
	}
}

// Accept implements Listener: it returns the next new-peer session.
func (m *UDPMux) Accept() (Conn, error) {
	select {
	case mc := <-m.backlog:
		return mc, nil
	case <-m.done:
		return nil, ErrClosed
	}
}

// Addr implements Listener.
func (m *UDPMux) Addr() net.Addr { return m.pc.LocalAddr() }

// Close implements Listener: it stops the read loop, fails pending
// Accepts, and closes every live session. Idempotent.
func (m *UDPMux) Close() error {
	m.once.Do(func() {
		close(m.done)
		_ = m.pc.Close()
		m.mu.Lock()
		open := make([]*muxConn, 0, len(m.sessions))
		for _, mc := range m.sessions {
			open = append(open, mc)
		}
		m.mu.Unlock()
		for _, mc := range open {
			_ = mc.Close()
		}
	})
	return nil
}

// forget drops a closed session's address mapping.
func (m *UDPMux) forget(key string) {
	m.mu.Lock()
	delete(m.sessions, key)
	m.mu.Unlock()
}

// muxConn is one peer's session on a UDPMux. Close semantics match
// memConn: datagrams queued before a local Close still drain, then
// Recv reports ErrClosed; Send after Close fails deterministically.
type muxConn struct {
	mux     *UDPMux
	peer    *net.UDPAddr
	key     string
	in      chan []byte
	done    chan struct{}
	once    sync.Once
	timeout time.Duration
}

// deliver enqueues an inbound datagram, dropping when the queue is full
// or the session is closed — both are indistinguishable from wire loss.
func (c *muxConn) deliver(msg []byte) {
	select {
	case <-c.done:
	default:
		select {
		case c.in <- msg:
		default:
		}
	}
}

// RemoteAddr exposes the peer this session is bound to.
func (c *muxConn) RemoteAddr() net.Addr { return c.peer }

// SetTimeout adjusts the default receive deadline used by Recv.
func (c *muxConn) SetTimeout(d time.Duration) { c.timeout = d }

// Send implements Conn, writing out the mux's shared socket.
func (c *muxConn) Send(msg []byte) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	_, err := c.mux.pc.WriteToUDP(msg, c.peer)
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return fmt.Errorf("%w: %v", ErrClosed, err)
		}
		return err
	}
	return nil
}

// Recv implements Conn using the session's default timeout.
func (c *muxConn) Recv() ([]byte, error) { return c.RecvTimeout(c.timeout) }

// RecvTimeout implements Conn.
func (c *muxConn) RecvTimeout(d time.Duration) ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		return c.drain()
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		return c.drain()
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// drain keeps delivering datagrams queued before Close, then reports
// closure — the memConn contract.
func (c *muxConn) drain() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	default:
		return nil, ErrClosed
	}
}

// Close implements Conn: the session's address mapping is forgotten so
// the peer slot can be reused. Idempotent.
func (c *muxConn) Close() error {
	c.once.Do(func() {
		close(c.done)
		c.mux.forget(c.key)
	})
	return nil
}
