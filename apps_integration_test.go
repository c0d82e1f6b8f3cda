package tcpfailover_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// ftpScenario builds a replicated FTP service (control port 21, data
// connections dialed from port 20).
func ftpScenario(t *testing.T, opts tcpfailover.Options) *tcpfailover.Scenario {
	t.Helper()
	opts.ServerPorts = []uint16{apps.FTPControlPort, apps.FTPDataPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	install := func(h *netstack.Host) error {
		_, err := apps.NewFTPServer(h.TCP(), apps.DefaultFTPFiles())
		return err
	}
	if sc.Group != nil {
		if err := sc.Group.OnEach(install); err != nil {
			t.Fatalf("install ftp: %v", err)
		}
	} else if err := install(sc.Primary); err != nil {
		t.Fatalf("install ftp: %v", err)
	}
	sc.Start()
	return sc
}

func runFTPGetPut(t *testing.T, sc *tcpfailover.Scenario, crashAfterLogin bool) {
	t.Helper()
	cl, err := apps.NewFTPClient(sc.Client.TCP(), sc.Sched, tcpfailover.ClientAddr, sc.ServiceAddr())
	if err != nil {
		t.Fatalf("ftp client: %v", err)
	}
	var results []apps.FTPResult
	record := func(r apps.FTPResult) { results = append(results, r) }
	cl.Login(func(r apps.FTPResult) {
		if r.Err != nil {
			t.Errorf("login: %v", r.Err)
		}
		if crashAfterLogin {
			sc.Group.CrashPrimary()
		}
	})
	cl.Get("medium.bin", record)
	cl.Put("upload.bin", 20000, record)
	cl.Get("small.txt", record)
	done := false
	cl.Done = func() { done = true }
	cl.Quit()

	if err := sc.RunUntil(func() bool { return done }, 10*time.Minute); err != nil {
		t.Fatalf("run: %v (results=%+v)", err, results)
	}
	if len(results) != 3 {
		t.Fatalf("got %d transfer results, want 3: %+v", len(results), results)
	}
	wantBytes := []int64{18637, 20000, 1331}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("transfer %d (%s): %v", i, r.Name, r.Err)
		}
		if r.Bytes != wantBytes[i] {
			t.Errorf("transfer %d (%s): %d bytes, want %d", i, r.Name, r.Bytes, wantBytes[i])
		}
		if r.BadAt >= 0 {
			t.Errorf("transfer %d (%s): corruption at %d", i, r.Name, r.BadAt)
		}
	}
}

func TestFTPReplicatedFaultFree(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.LANOptions())
	runFTPGetPut(t, sc, false)
	// The data connections are server-initiated through the bridge.
	if got := sc.Group.PrimaryBridge().Stats().ConnsOpened; got < 4 {
		t.Errorf("primary bridge tracked %d connections, want >= 4 (1 control + 3 data)", got)
	}
}

func TestFTPStandardBaseline(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Unreplicated = true
	sc := ftpScenario(t, opts)
	runFTPGetPut(t, sc, false)
}

func TestFTPFailoverDuringSession(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.LANOptions())
	runFTPGetPut(t, sc, true)
	if sc.Group.SecondaryBridge().Active() {
		t.Error("secondary bridge still active after primary crash")
	}
}

func TestFTPOverWAN(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.WANOptions())
	runFTPGetPut(t, sc, false)
}

// TestTwoTierBackend exercises section 7.2: the replicated middle tier
// opens server-initiated connections to an unreplicated back end running on
// the client-side host.
func TestTwoTierBackend(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{8000}
	opts.PeerPorts = []uint16{apps.KVDefaultPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	// The unreplicated back end T lives across the router, on the client
	// host (any unreplicated host works).
	if _, err := apps.NewKVServer(sc.Client.TCP(), apps.KVDefaultPort,
		map[string]string{"motd": "hello"}); err != nil {
		t.Fatalf("kv server: %v", err)
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewFrontend(h.TCP(), 8000, tcpfailover.ClientAddr, apps.KVDefaultPort)
		return err
	}); err != nil {
		t.Fatalf("install frontend: %v", err)
	}
	sc.Start()

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 8000)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var lines []string
	var lr strings.Builder
	buf := make([]byte, 4096)
	conn.OnEstablished(func() {
		_, _ = conn.Write([]byte("FETCH motd\nSTORE greet hi\nFETCH greet\nFETCH missing\nQUIT\n"))
	})
	closed := false
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(buf)
			if n > 0 {
				lr.Write(buf[:n])
				continue
			}
			if rerr == io.EOF {
				conn.Close()
			}
			return
		}
	})
	conn.OnClose(func(error) { closed = true })

	if err := sc.RunUntil(func() bool { return closed }, 5*time.Minute); err != nil {
		t.Fatalf("run: %v (got %q)", err, lr.String())
	}
	lines = strings.Split(strings.TrimSpace(lr.String()), "\n")
	want := []string{"200 hello", "201", "200 hi", "404", "221"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %q, want %q", len(lines), lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: got %q want %q", i, lines[i], want[i])
		}
	}
}

// TestStoreReplicated drives the paper's introductory online-store example
// through a failover.
func TestStoreReplicated(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{8080}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewStoreServer(h.TCP(), 8080, apps.DefaultCatalog())
		return err
	}); err != nil {
		t.Fatalf("install store: %v", err)
	}
	sc.Start()

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 8080)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var out strings.Builder
	buf := make([]byte, 4096)
	step := 0
	crashed := false
	var send func(s string)
	send = func(s string) { _, _ = conn.Write([]byte(s)) }
	conn.OnEstablished(func() { send("BROWSE keyboard\n") })
	closed := false
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(buf)
			if n > 0 {
				out.Write(buf[:n])
				for strings.Count(out.String(), "\n") > step {
					step++
					switch step {
					case 1:
						if !crashed {
							crashed = true
							sc.Group.CrashPrimary()
						}
						send("BUY keyboard 2\n")
					case 2:
						send("BUY mouse 1\n")
					case 3:
						send("QUIT\n")
					}
				}
				continue
			}
			if rerr == io.EOF {
				conn.Close()
			}
			return
		}
	})
	conn.OnClose(func(error) { closed = true })

	if err := sc.RunUntil(func() bool { return closed }, 10*time.Minute); err != nil {
		t.Fatalf("run: %v (got %q)", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		"200 keyboard 4999 120 mechanical keyboard",
		"201 ORDER 1000 keyboard 2 9998",
		"201 ORDER 1001 mouse 1 1999",
		"221 bye",
	}
	if len(lines) != len(want) {
		t.Fatalf("got lines %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: got %q want %q", i, lines[i], want[i])
		}
	}
}

// TestStoreProtocolEdges drives the store's LIST output and malformed
// commands.
func TestStoreProtocolEdges(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{8080}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewStoreServer(h.TCP(), 8080, apps.DefaultCatalog())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sc.Start()

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 8080)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	buf := make([]byte, 8192)
	closed := false
	conn.OnEstablished(func() {
		_, _ = conn.Write([]byte("LIST\nBROWSE\nBUY keyboard nonsense\nBUY keyboard 0\nFROBNICATE\nQUIT\n"))
	})
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(buf)
			if n > 0 {
				out.Write(buf[:n])
				continue
			}
			if rerr == io.EOF {
				conn.Close()
			}
			return
		}
	})
	conn.OnClose(func(error) { closed = true })
	if err := sc.RunUntil(func() bool { return closed }, 10*time.Minute); err != nil {
		t.Fatalf("run: %v (got %q)", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"200 5 items", "keyboard", "cable", "\n.\n",
		"400 usage: BROWSE", "400 bad quantity", "400 unknown command", "221 bye"} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
	// "400 bad quantity" must appear twice (non-numeric and zero).
	if strings.Count(got, "400 bad quantity") != 2 {
		t.Errorf("bad-quantity rejections = %d, want 2", strings.Count(got, "400 bad quantity"))
	}
}

// TestKVProtocolEdges drives the back end's error replies through the
// replicated middle tier.
func TestKVProtocolEdges(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{8000}
	opts.PeerPorts = []uint16{apps.KVDefaultPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.NewKVServer(sc.Client.TCP(), apps.KVDefaultPort, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewFrontend(h.TCP(), 8000, tcpfailover.ClientAddr, apps.KVDefaultPort)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sc.Start()

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	buf := make([]byte, 4096)
	closed := false
	conn.OnEstablished(func() {
		_, _ = conn.Write([]byte("FETCH missing\nGARBAGE\nSTORE a 1\nFETCH a\nQUIT\n"))
	})
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(buf)
			if n > 0 {
				out.Write(buf[:n])
				continue
			}
			if rerr == io.EOF {
				conn.Close()
			}
			return
		}
	})
	conn.OnClose(func(error) { closed = true })
	if err := sc.RunUntil(func() bool { return closed }, 10*time.Minute); err != nil {
		t.Fatalf("run: %v (got %q)", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"404", "400 unknown command", "201", "200 1", "221"}
	if len(lines) != len(want) {
		t.Fatalf("lines %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestLoadgenCountsBadBodies: the open-loop generator verifies every
// response body. A server that corrupts one byte of every other body
// yields exactly that many BadBodies, and their bytes stay out of BytesIn.
func TestLoadgenCountsBadBodies(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Unreplicated = true
	opts.ServerPorts = []uint16{80}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	const size = 1000
	served := 0
	if _, err := sc.Primary.TCP().Listen(80, func(c *tcp.Conn) {
		var head, out []byte
		buf := make([]byte, 4096)
		pump := func() {
			for {
				if len(out) > 0 {
					n, err := c.Write(out)
					if err != nil || n == 0 {
						return
					}
					out = out[n:]
					continue
				}
				n, err := c.Read(buf)
				if n == 0 {
					if err != nil {
						c.Close()
					}
					return
				}
				head = append(head, buf[:n]...)
				for {
					i := strings.Index(string(head), "\r\n\r\n")
					if i < 0 {
						break
					}
					head = head[i+4:]
					body := make([]byte, size)
					apps.Pattern(body, 0)
					if served%2 == 1 {
						body[size/2] ^= 0xff
					}
					served++
					out = append(out, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)...)
					out = append(out, body...)
				}
			}
		}
		c.OnReadable(pump)
		c.OnWritable(pump)
	}); err != nil {
		t.Fatalf("listen: %v", err)
	}
	sc.Start()

	gen := loadgen.New(loadgen.Config{
		Sched: sc.Sched,
		Stack: sc.Client.TCP(),
		Addr:  sc.ServiceAddr(),
		Port:  80,
		Spec: loadgen.Spec{
			Arrivals: loadgen.Poisson{Rate: 20},
			Session:  loadgen.Session{Requests: loadgen.Fixed(3), Sizes: loadgen.Fixed(size), Think: time.Millisecond},
		},
		Rand: fault.NewRand(1),
		Stop: time.Second,
	})
	gen.Start(0)
	if err := sc.Sched.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := gen.Stats
	if st.Completed == 0 || st.Completed != st.Requests {
		t.Fatalf("completed %d of %d requests", st.Completed, st.Requests)
	}
	if int64(served) != st.Completed {
		t.Fatalf("server answered %d requests, generator completed %d", served, st.Completed)
	}
	// Sessions are sequential per connection but interleave across
	// connections, so the server's alternation is global: half the
	// responses (rounded down) are corrupt.
	if want := st.Completed / 2; st.BadBodies != want {
		t.Errorf("BadBodies = %d, want %d", st.BadBodies, want)
	}
	if want := (st.Completed - st.BadBodies) * size; st.BytesIn != want {
		t.Errorf("BytesIn = %d, want %d (verified bodies only)", st.BytesIn, want)
	}
}
