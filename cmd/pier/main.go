// Command pier runs a real PIER node on the Physical Runtime Environment
// (paper §3.1.3): real clock, UDP with UdpCC-style reliability, TCP for
// clients. The same program logic that the simulator exercises runs here
// unchanged — the paper's "native simulation" guarantee.
//
// Start a bootstrap node:
//
//	pier -bind 127.0.0.1:7000
//
// Add members:
//
//	pier -bind 127.0.0.1:7001 -join 127.0.0.1:7000
//
// Publish demo tuples and run a query from a client:
//
//	pier -proxy 127.0.0.1:7000 -query "SELECT * FROM demo TIMEOUT 5s"
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"pier/internal/phys"
	"pier/internal/qp"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/vri"
)

func main() {
	bind := flag.String("bind", "", "UDP address to run a node on (server mode)")
	join := flag.String("join", "", "existing node to bootstrap through")
	demo := flag.Int("demo", 0, "publish this many demo tuples into table 'demo'")
	proxy := flag.String("proxy", "", "node to connect to as a client (client mode)")
	query := flag.String("query", "", "SQL text to run in client mode")
	wait := flag.Duration("wait", 10*time.Second, "client mode: how long to wait for results")
	flag.Parse()

	switch {
	case *bind != "":
		runNode(*bind, *join, *demo)
	case *proxy != "":
		runClient(*proxy, *query, *wait)
	default:
		fmt.Fprintln(os.Stderr, "pier: need -bind (server) or -proxy (client); see -help")
		os.Exit(2)
	}
}

func runNode(bind, join string, demo int) {
	rt, err := phys.New(phys.Config{Bind: bind})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	// All program logic runs on the runtime's scheduler goroutine (§3.1.2):
	// the node's timers and message handlers already do, so everything this
	// goroutine asks of the node goes through onLoop.
	node := qp.NewNode(rt, qp.Config{})
	var startErr error
	onLoop(rt, func() {
		if startErr = node.Start(); startErr == nil {
			startErr = node.ServeClients()
		}
	})
	if startErr != nil {
		fatal(startErr)
	}
	fmt.Printf("pier node on %s\n", node.Addr())

	if join != "" {
		ok := make(chan error, 1)
		onLoop(rt, func() { node.Join(vri.Addr(join), func(err error) { ok <- err }) })
		if err := <-ok; err != nil {
			fatal(fmt.Errorf("join %s: %w", join, err))
		}
		fmt.Printf("joined the overlay via %s\n", join)
	}
	if demo > 0 {
		onLoop(rt, func() {
			for i := 0; i < demo; i++ {
				node.PublishLocal("demo", tuple.New("demo").
					Set("node", tuple.String(string(node.Addr()))).
					Set("seq", tuple.Int(int64(i))), time.Hour)
			}
		})
		fmt.Printf("published %d demo tuples\n", demo)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
	onLoop(rt, node.Stop)
}

// onLoop runs fn on the runtime's scheduler goroutine and waits for it.
func onLoop(rt vri.Runtime, fn func()) {
	done := make(chan struct{})
	rt.Schedule(0, func() { fn(); close(done) })
	<-done
}

func runClient(proxy, query string, wait time.Duration) {
	if query == "" {
		fatal(fmt.Errorf("client mode needs -query"))
	}
	rt, err := phys.New(phys.Config{})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	// The client machine is not an overlay member; it only speaks the
	// TCP client protocol to its chosen proxy (§3.3.2).
	results := make(chan string, 256)
	done := make(chan struct{}, 1)
	fail := make(chan error, 1)
	cli, err := qp.NewClient(rt, vri.Addr(proxy),
		func(t *tuple.Tuple) { results <- t.String() },
		func() { done <- struct{}{} },
		func(e error) { fail <- e })
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	// SQL is compiled client-side by the naive optimizer (§4.2); raw UFL
	// plans (starting with the keyword "query") pass through as text.
	if len(query) >= 5 && query[:5] == "query" {
		cli.Run(query)
	} else {
		plan, err := sqlfront.Run(fmt.Sprintf("cli-%d", time.Now().UnixNano()), query, sqlfront.Options{})
		if err != nil {
			fatal(err)
		}
		cli.RunPlan(plan)
	}

	timer := time.NewTimer(wait)
	n := 0
	for {
		select {
		case r := <-results:
			n++
			fmt.Println(r)
		case <-done:
			fmt.Printf("done: %d results\n", n)
			return
		case err := <-fail:
			fatal(err)
		case <-timer.C:
			fmt.Printf("timeout: %d results\n", n)
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pier:", err)
	os.Exit(1)
}
