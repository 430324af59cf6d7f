// Package transport provides the message channels the key-establishment
// protocol runs over: an in-memory pair for simulation and tests, a UDP
// pair for running the two protocol ends as real processes, and a
// deterministic fault-injecting wrapper (see faulty.go) that models lossy
// LoRa links.
package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Conn is a message-oriented, bidirectional channel. Delivery is NOT
// guaranteed reliable: the UDP transport drops under congestion and the
// faulty wrapper drops by design, so the protocol layer owns retries.
type Conn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	// RecvTimeout waits at most d for the next message and returns
	// ErrTimeout when nothing arrives in time. The protocol's retransmit
	// logic is built on this.
	RecvTimeout(d time.Duration) ([]byte, error)
	Close() error
}

// Listener accepts inbound Conns for the serving layer: the framed TCP
// listener and the UDP mux both implement it, so a server binds either
// with the same code. Accept on a closed listener reports ErrClosed.
type Listener interface {
	Accept() (Conn, error)
	Addr() net.Addr
	Close() error
}

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout reports that no message arrived within the receive deadline.
var ErrTimeout = errors.New("transport: receive timeout")

// Pair returns two in-memory connection ends wired to each other.
func Pair() (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &memConn{out: ab, in: ba, done: done, closeOnce: once}
	b := &memConn{out: ba, in: ab, done: done, closeOnce: once}
	return a, b
}

type memConn struct {
	out  chan []byte
	in   chan []byte
	done chan struct{}
	// closeOnce is shared by both ends: either may close the link, and
	// both may do so at once.
	closeOnce *sync.Once
}

func (c *memConn) Send(msg []byte) error {
	// Check closure first so Send-after-Close fails deterministically
	// instead of racing the buffered channel in a two-way select.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case c.out <- cp:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *memConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		return c.drain()
	}
}

// RecvTimeout implements the deadline receive over the in-memory pair.
func (c *memConn) RecvTimeout(d time.Duration) ([]byte, error) {
	// Fast path: a queued message never pays for a timer.
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

// drain empties messages that were queued before Close: closing must not
// drop them, so each Recv keeps delivering until the queue is empty and
// only then reports closure.
func (c *memConn) drain() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	default:
		return nil, ErrClosed
	}
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

// UDPConn is a datagram transport to one fixed peer. LoRa control traffic
// is tiny and loss-tolerant at the protocol layer (rounds retry and
// resynchronize), so plain UDP matches the deployment model.
type UDPConn struct {
	conn    *net.UDPConn
	peer    *net.UDPAddr
	timeout time.Duration
}

// DialUDP binds local and targets peer, e.g. DialUDP(":0", "127.0.0.1:9000").
func DialUDP(local, peer string) (*UDPConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	paddr, err := net.ResolveUDPAddr("udp", peer)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &UDPConn{conn: conn, peer: paddr, timeout: 5 * time.Second}, nil
}

// LocalAddr exposes the bound address (useful with ":0").
func (c *UDPConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// SetPeer retargets the connection (a listener learns its peer from the
// first datagram).
func (c *UDPConn) SetPeer(addr *net.UDPAddr) { c.peer = addr }

// ResolvePeer resolves a host:port string into a UDP address for SetPeer.
func ResolvePeer(addr string) (*net.UDPAddr, error) {
	out, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return out, nil
}

// SetTimeout adjusts the default receive deadline used by Recv.
func (c *UDPConn) SetTimeout(d time.Duration) { c.timeout = d }

// Send implements Conn.
func (c *UDPConn) Send(msg []byte) error {
	_, err := c.conn.WriteToUDP(msg, c.peer)
	if err != nil && errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Recv implements Conn using the connection's default timeout. The first
// sender becomes the peer if none is set.
func (c *UDPConn) Recv() ([]byte, error) { return c.RecvTimeout(c.timeout) }

// RecvTimeout implements Conn, mapping deadline and closure errors onto
// the transport sentinels so callers can branch without net internals.
func (c *UDPConn) RecvTimeout(d time.Duration) ([]byte, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		return nil, err
	}
	buf := make([]byte, 64*1024)
	n, addr, err := c.conn.ReadFromUDP(buf)
	if err != nil {
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			return nil, fmt.Errorf("%w: %v", ErrTimeout, err)
		case errors.Is(err, net.ErrClosed):
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		return nil, err
	}
	if c.peer == nil {
		c.peer = addr
	}
	return buf[:n], nil
}

// Close implements Conn and is idempotent: closing an already-closed
// connection returns nil, matching memConn (the Conn contract every
// implementation is tested against).
func (c *UDPConn) Close() error {
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
