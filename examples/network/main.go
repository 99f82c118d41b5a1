// Network: the store served over TCP. Starts an in-process server with
// automatic CPR commits, drives it with concurrent clients, "crashes" the
// server, restarts it from its checkpoints, and shows clients resuming their
// sessions at their recovered CPR points.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/kvserver"
	"repro/internal/node"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func main() {
	dir, err := os.MkdirTemp("", "cpr-network-") // survives the simulated server crash
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := node.Config{Addr: "127.0.0.1:0", Dir: dir, Shards: 1}
	srv, err := node.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr().String()
	fmt.Println("server listening on", addr)

	// Three clients write disjoint key ranges concurrently.
	const clients = 3
	const opsEach = 2000
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := kvserver.Dial(addr, "")
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			ids[i] = c.ID()
			for n := uint64(1); n <= opsEach; n++ {
				if _, err := c.Set(u64(uint64(i)<<32|n), u64(n)); err != nil {
					log.Fatal(err)
				}
			}
			// Each client requests a commit; the server coalesces them.
			point, err := c.Commit(true)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("client %d committed; CPR point %d of %d ops\n", i, point, opsEach)
		}()
	}
	wg.Wait()

	// Crash the server process state; the log and checkpoints survive.
	srv.Close()
	fmt.Println("server crashed; restarting from checkpoints")

	srv2, err := node.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	addr2 := srv2.Addr().String()

	for i := 0; i < clients; i++ {
		c, err := kvserver.Dial(addr2, ids[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client %d resumed; recovered CPR point %d\n", i, c.CPRPoint())
		// Everything up to the CPR point must be readable.
		probe := c.CPRPoint()
		if probe > 0 {
			val, found, err := c.Get(u64(uint64(i)<<32 | probe))
			if err != nil || !found || binary.LittleEndian.Uint64(val) != probe {
				log.Fatalf("client %d: op %d not recovered (%v %v)", i, probe, found, err)
			}
		}
		c.Close()
	}
	fmt.Println("all client prefixes recovered over the network ✔")
}
