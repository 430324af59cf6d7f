package transport

import "testing"

// InProcessQueueLen reaches into the concrete in-process queue of a Conn
// (white-box), so the shared contract's drain check can wait until
// messages are demonstrably buffered without racing the delivery path.
// Only visible to this package's tests.
func InProcessQueueLen(t *testing.T, c Conn) int {
	t.Helper()
	switch cc := c.(type) {
	case *memConn:
		return len(cc.in)
	case *muxConn:
		return len(cc.in)
	default:
		t.Fatalf("InProcessQueueLen: %T does not queue in process", c)
		return 0
	}
}

// TCPReadBuf is a TCPConn's resting read-buffer capacity.
const TCPReadBuf = tcpReadBuf

// TCPReadCap reports the capacity of c's stream read buffer (white-box),
// so a test can bound what wire input makes a connection hold.
func TCPReadCap(c *TCPConn) int { return cap(c.rbuf) }
