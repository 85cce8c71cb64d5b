package coalition

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPHub is a hub-and-spoke TCP transport: one party (or a dedicated
// process) runs the hub, every party connects a TCPTransport to it, and
// the hub relays each published policy to every other connection. Wire
// format: one JSON-encoded SharedPolicy per line, after one hello line
// the hub writes to each connection once it relays to it.
type TCPHub struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPHub starts a hub listening on addr (use "127.0.0.1:0" to pick a
// free port; see Addr).
func NewTCPHub(addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coalition: hub listen: %w", err)
	}
	h := &TCPHub{ln: ln, conns: make(map[net.Conn]struct{})}
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

// hubHello is the line a hub writes to a connection once it is
// registered for relay; DialTCP returns only after reading it, so a
// policy published right after dialling cannot miss a peer.
const hubHello = "agenp-hub"

// helloTimeout bounds DialTCP's wait for the hub's hello line.
const helloTimeout = 10 * time.Second

// maxFrameBytes bounds one line on the wire. A longer line ends the
// connection it arrives on, at the hub and at a transport alike, and
// counts in coalition.frames.oversize.
const maxFrameBytes = 1024 * 1024

// newFrameScanner returns the line scanner both ends read frames with.
func newFrameScanner(conn net.Conn) *bufio.Scanner {
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), maxFrameBytes)
	return scanner
}

// countOversize counts a frame loop that a line over maxFrameBytes
// ended.
func countOversize(scanner *bufio.Scanner) {
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		statFramesOversize.Inc()
	}
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

func (h *TCPHub) accept() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return
		}
		h.conns[conn] = struct{}{}
		// Under the relay mutex, so the hello precedes every relayed line.
		_, _ = io.WriteString(conn, hubHello+"\n")
		h.mu.Unlock()
		h.wg.Add(1)
		go h.serve(conn)
	}
}

// serve relays every line from one connection to all others.
func (h *TCPHub) serve(conn net.Conn) {
	defer h.wg.Done()
	defer func() {
		h.mu.Lock()
		delete(h.conns, conn)
		h.mu.Unlock()
		_ = conn.Close()
	}()
	scanner := newFrameScanner(conn)
	defer countOversize(scanner)
	for scanner.Scan() {
		line := append([]byte{}, scanner.Bytes()...)
		line = append(line, '\n')
		statHubMsgs.Inc()
		statHubBytes.Add(int64(len(line)))
		h.mu.Lock()
		for other := range h.conns {
			if other == conn {
				continue
			}
			_, _ = other.Write(line)
		}
		h.mu.Unlock()
	}
}

// Close stops the hub and closes every connection.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	h.wg.Wait()
	return err
}

// TCPTransport connects a party to a TCPHub. What it reads from the hub
// it delivers through a Bus it owns, so subscription, the own-name
// filter and drop-on-full are the Bus's; the Bus closes when the
// connection ends or the transport is closed.
type TCPTransport struct {
	conn net.Conn
	bus  *Bus
	done chan struct{}
}

var _ Transport = (*TCPTransport)(nil)

// DialTCP connects to a hub and returns once the hub relays to the new
// connection.
func DialTCP(addr string) (*TCPTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coalition: dial hub: %w", err)
	}
	scanner := newFrameScanner(conn)
	if err := readHello(conn, scanner); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("coalition: dial hub: %w", err)
	}
	t := &TCPTransport{conn: conn, bus: NewBus(), done: make(chan struct{})}
	go t.read(scanner)
	return t, nil
}

// readHello reads the hub's hello line under a deadline, through the
// scanner the frame loop then uses.
func readHello(conn net.Conn, scanner *bufio.Scanner) error {
	if err := conn.SetReadDeadline(time.Now().Add(helloTimeout)); err != nil {
		return err
	}
	if !scanner.Scan() {
		if err := scanner.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	if scanner.Text() != hubHello {
		return fmt.Errorf("unexpected greeting %q", scanner.Text())
	}
	return conn.SetReadDeadline(time.Time{})
}

func (t *TCPTransport) read(scanner *bufio.Scanner) {
	defer close(t.done)
	for scanner.Scan() {
		var sp SharedPolicy
		if err := json.Unmarshal(scanner.Bytes(), &sp); err != nil {
			statFramesMalformed.Inc()
			continue // skip malformed frames
		}
		_ = t.bus.Publish(sp) // fails only once Close has closed the bus
	}
	countOversize(scanner)
	_ = t.bus.Close() // connection closed: close subscriber channels
}

// Publish implements Transport.
func (t *TCPTransport) Publish(sp SharedPolicy) error {
	data, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("coalition: encode policy: %w", err)
	}
	data = append(data, '\n')
	if _, err := t.conn.Write(data); err != nil {
		return fmt.Errorf("coalition: publish: %w", err)
	}
	return nil
}

// Subscribe implements Transport.
func (t *TCPTransport) Subscribe(name string, buffer int) (<-chan SharedPolicy, func(), error) {
	return t.bus.Subscribe(name, buffer)
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	_ = t.bus.Close()
	err := t.conn.Close()
	<-t.done
	return err
}
