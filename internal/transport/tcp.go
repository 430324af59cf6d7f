package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// TCPConn is a message-oriented Conn over one TCP stream, cut into
// CRC-framed messages (see frame.go). Its error semantics match memConn:
// Send after Close fails with ErrClosed, an expired receive deadline is
// ErrTimeout, and a peer's close surfaces as ErrClosed. Unlike memConn
// it cannot drain after a local Close — the kernel discards undelivered
// bytes with the socket.
//
// Send is safe for concurrent callers (the fault injector's delayed
// transmissions fire from timer goroutines); Recv/RecvTimeout are
// serialized internally but, like every Conn here, are meant for one
// receiving goroutine.
type TCPConn struct {
	conn net.Conn

	wmu  sync.Mutex // serializes frame writes so they cannot interleave
	wbuf []byte     // frame under construction; reused once Write returns

	rmu  sync.Mutex // guards the read state below
	rbuf []byte     // unconsumed stream bytes; a partial frame survives a deadline

	timeout time.Duration
	once    sync.Once
}

// tcpReadBuf is rbuf's resting capacity. Every frame of a
// key-establishment session fits it (messages average about 70 bytes,
// the largest about 330). A larger frame grows rbuf to exactly its own
// total, and rbuf drops back to this size once that frame is consumed.
const tcpReadBuf = 512

// tcpWriteKeep bounds the frame buffer a connection keeps between sends:
// one grown past it by a large message is dropped after that write.
const tcpWriteKeep = 64 << 10

// NewTCPConn wraps an established TCP (or TCP-like) stream. It allocates
// no buffers; the first receive and the first send make their own.
func NewTCPConn(conn net.Conn) *TCPConn {
	return &TCPConn{conn: conn, timeout: 5 * time.Second}
}

// DialTCP connects to a listening peer, e.g. DialTCP("127.0.0.1:9300").
func DialTCP(addr string) (*TCPConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return NewTCPConn(conn), nil
}

// LocalAddr exposes the bound address.
func (c *TCPConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// SetTimeout adjusts the default receive deadline used by Recv.
func (c *TCPConn) SetTimeout(d time.Duration) { c.timeout = d }

// Send implements Conn: one framed write per message. The frame is built
// in the connection's own buffer and goes out in a single Write under the
// write mutex, so concurrent senders can never interleave partial frames.
// Write has finished with the buffer when it returns, so the next Send
// reuses it.
func (c *TCPConn) Send(msg []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame, err := AppendFrame(c.wbuf[:0], msg)
	if err != nil {
		return err
	}
	_, err = c.conn.Write(frame)
	c.wbuf = frame
	if cap(frame) > tcpWriteKeep {
		c.wbuf = nil
	}
	if err != nil {
		return mapNetErr(err)
	}
	return nil
}

// Recv implements Conn using the connection's default timeout.
func (c *TCPConn) Recv() ([]byte, error) { return c.RecvTimeout(c.timeout) }

// RecvTimeout implements Conn. The socket is read straight into rbuf's
// spare capacity, and the returned payload is a fresh copy that belongs
// to the caller. A deadline that expires mid-frame leaves the partial
// frame buffered: the stream position is preserved and the next call
// resumes exactly where this one stopped.
func (c *TCPConn) RecvTimeout(d time.Duration) ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	//vklint:ignore norand -- receive deadline arithmetic only; never feeds randomness or key material
	deadline := time.Now().Add(d)
	for {
		payload, n, err := DecodeFrame(c.rbuf, MaxFrameBytes)
		if err != nil {
			// The stream cannot resynchronize past a bad frame; poison
			// the connection so both ends see a clean ErrClosed next.
			// Dropping the buffer matters: later calls must hit the closed
			// socket, not re-decode the same bad frame forever.
			c.rbuf = nil
			_ = c.Close()
			return nil, err
		}
		if payload != nil {
			c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[n:])]
			if cap(c.rbuf) > tcpReadBuf {
				// rbuf was grown to exactly the frame just consumed, so
				// nothing follows it; do not pin that size for the
				// connection's life.
				c.rbuf = nil
			}
			return payload, nil
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil, mapNetErr(err)
		}
		n, err = c.conn.Read(c.readRoom())
		c.rbuf = c.rbuf[:len(c.rbuf)+n]
		if err != nil && n == 0 {
			return nil, mapNetErr(err)
		}
	}
}

// readRoom returns rbuf's spare capacity for the next socket read, never
// empty. rbuf holds at most a prefix of one frame here. Once that prefix
// includes the header, DecodeFrame has already checked its length against
// MaxFrameBytes (the check is repeated here so this function is bounded
// on its own), and only then may rbuf grow, once, to exactly the frame's
// total, so a grown buffer is never filled past that frame.
func (c *TCPConn) readRoom() []byte {
	want := tcpReadBuf
	if len(c.rbuf) >= frameHeaderLen {
		if size := binary.BigEndian.Uint32(c.rbuf[:4]); size <= MaxFrameBytes {
			want = max(want, frameHeaderLen+int(size))
		}
	}
	if cap(c.rbuf) < want {
		c.rbuf = append(make([]byte, 0, want), c.rbuf...)
	}
	return c.rbuf[len(c.rbuf):cap(c.rbuf)]
}

// Close implements Conn and is idempotent: the first call closes the
// socket, later calls return nil, matching memConn.
func (c *TCPConn) Close() error {
	var err error
	c.once.Do(func() { err = c.conn.Close() })
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: %w", err)
	}
	return nil
}

// mapNetErr folds net-package failures onto the transport sentinels so
// callers branch on errors.Is(ErrTimeout/ErrClosed) without net
// internals. EOF and reset-by-peer both mean the session is over, which
// is exactly what ErrClosed communicates to the protocol layer.
func mapNetErr(err error) error {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	case errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF), errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return err
}

// TCPListener accepts framed TCP connections as transport.Conns.
type TCPListener struct {
	l net.Listener
}

// ListenTCP listens on addr (":0" picks a free port).
func ListenTCP(addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &TCPListener{l: l}, nil
}

// Accept implements Listener; a closed listener reports ErrClosed.
func (l *TCPListener) Accept() (Conn, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, mapNetErr(err)
	}
	return NewTCPConn(conn), nil
}

// Addr implements Listener.
func (l *TCPListener) Addr() net.Addr { return l.l.Addr() }

// Close implements Listener; pending and future Accepts fail with
// ErrClosed.
func (l *TCPListener) Close() error {
	if err := l.l.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: %w", err)
	}
	return nil
}
