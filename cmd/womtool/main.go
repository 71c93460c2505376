// Command womtool inspects the WOM-codes of the reproduction: it prints the
// paper's Table 1 (in both orientations), verifies the WOM property of the
// shipped codes, encodes/decodes example write sequences, reports the
// §3.2 analytic bound for a given rewrite budget, and runs regression
// checks over a result-store cache (womsim -cache / womd -cache).
//
// Usage:
//
//	womtool table            # print Table 1 and its inverted form
//	womtool verify           # exhaustively verify all shipped codes
//	womtool encode 01 11     # walk a write sequence through inv<2^2>^2/3
//	womtool bound 2 8        # (k-1+S)/(kS) for k = 2 and 8
//	womtool search 2 5       # construct and certify a 2-bit code over 5 wits
//	womtool regress -dir out/cache pin v1          # pin current results
//	womtool regress -dir out/cache -tol 0.02 report v1  # per-metric deltas
//	womtool regress -dir out/cache list            # pinned baselines
//	womtool report series.json -o report.html      # render womsim -series output
//	womtool loadgen -mix mix.json -o report.json   # open-loop load run against womd
//	womtool spans trace.json -o trace.html         # render a womd job trace waterfall
//	womtool top -url http://localhost:8080         # live ops dashboard: alerts, fleet, tenants
//	womtool graph -url http://localhost:8080 -o graphs.html  # metric-history dashboard (inline SVG)
package main

import (
	"fmt"
	"os"
	"strconv"

	"womcpcm/internal/pcm"
	"womcpcm/internal/womcode"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "table":
		printTable()
	case "verify":
		verifyAll()
	case "encode":
		encodeSequence(os.Args[2:])
	case "bound":
		printBounds(os.Args[2:])
	case "search":
		searchCode(os.Args[2:])
	case "regress":
		regress(os.Args[2:])
	case "report":
		report(os.Args[2:])
	case "loadgen":
		loadgenCmd(os.Args[2:])
	case "spans":
		spansCmd(os.Args[2:])
	case "top":
		topCmd(os.Args[2:])
	case "graph":
		graphCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: womtool table | verify | encode <2-bit values...> | bound <k...> | search <dataBits> <wits> | regress [-dir DIR] [-tol F] pin|report|list [name] | report <series.json> [-o report.html] | loadgen -mix MIX [-url URL] [-o REPORT] | spans <trace.json> [-o spans.html] | top [-url URL] [-interval D] [-once] [-html FILE] | graph [-url URL] [-metrics M[:agg],...] [-window D] [-o FILE]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "womtool:", err)
	os.Exit(1)
}

func printTable() {
	conv, inv := womcode.RS223(), womcode.InvRS223()
	fmt.Printf("Table 1: %s WOM-code (Rivest–Shamir) and its PCM-inverted form\n\n", conv.Name())
	fmt.Println("data   first write   second write   inverted first   inverted second")
	for x := uint64(0); x < 4; x++ {
		cf, err := conv.Encode(conv.Initial(), x, 0)
		if err != nil {
			fatal(err)
		}
		// Second-write pattern for a differing value (the table's r').
		var cs uint64
		for y := uint64(0); y < 4; y++ {
			if y == x {
				continue
			}
			from, _ := conv.Encode(conv.Initial(), y, 0)
			cs, err = conv.Encode(from, x, 1)
			if err != nil {
				fatal(err)
			}
			break
		}
		ifirst, err := inv.Encode(inv.Initial(), x, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%02b     %03b           %03b            %03b              %03b\n",
			x, cf, cs, ifirst, ^cs&0b111)
	}
	fmt.Println("\nIn the inverted code wits start at 1 and every in-budget write uses")
	fmt.Println("only fast RESET (1→0) transitions — the paper's §3.1 principle.")
}

func verifyAll() {
	codes := []womcode.Code{
		womcode.RS223(),
		womcode.InvRS223(),
		womcode.XOR(2),
		womcode.XOR(3),
		womcode.Invert(womcode.XOR(3)),
		womcode.Parity(2),
		womcode.Parity(4),
		womcode.Parity(8),
		womcode.Invert(womcode.Parity(4)),
	}
	for _, c := range codes {
		status := "ok"
		if err := womcode.Verify(c); err != nil {
			status = err.Error()
		}
		maxSets := "-"
		if n, err := womcode.MaxSETTransitions(c); err == nil {
			maxSets = strconv.Itoa(n)
		}
		fmt.Printf("%-16s k=%d n=%d t=%d  overhead %.2f  max SETs/write %-3s  %s\n",
			c.Name(), c.DataBits(), c.Wits(), c.Writes(), womcode.Overhead(c), maxSets, status)
	}
}

func encodeSequence(args []string) {
	if len(args) == 0 {
		fatal(fmt.Errorf("encode needs at least one 2-bit value (e.g. 01 11)"))
	}
	c := womcode.InvRS223()
	cur := c.Initial()
	fmt.Printf("code %s, erased state %03b\n", c.Name(), cur)
	for gen, arg := range args {
		v, err := strconv.ParseUint(arg, 2, 2)
		if err != nil {
			fatal(fmt.Errorf("bad 2-bit value %q: %w", arg, err))
		}
		if gen >= c.Writes() {
			fmt.Printf("write %d: value %02b — rewrite limit reached, α-write required\n", gen+1, v)
			cur, err = c.Encode(c.Initial(), v, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  α-write programs %03b (SET + RESET, %d ns class)\n", cur, pcm.DefaultTiming().RowWrite)
			continue
		}
		next, err := c.Encode(cur, v, gen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("write %d: value %02b → pattern %03b (RESET-only, %d ns class), decodes %02b\n",
			gen+1, v, next, pcm.DefaultTiming().Reset, c.Decode(next))
		cur = next
	}
}

func printBounds(args []string) {
	if len(args) == 0 {
		args = []string{"1", "2", "4", "8"}
	}
	t := pcm.DefaultTiming()
	m := womcode.CostModel{ResetLatency: t.Reset, Slowdown: t.Slowdown()}
	fmt.Printf("§3.2 bound (k−1+S)/(kS) with S = %.2f:\n", t.Slowdown())
	for _, a := range args {
		k, err := strconv.Atoi(a)
		if err != nil || k < 1 {
			fatal(fmt.Errorf("bad rewrite budget %q", a))
		}
		b := m.RewriteBound(k)
		fmt.Printf("  k=%-3d normalized write latency ≥ %.4f (≤ %.1f%% reduction)\n", k, b, 100*(1-b))
	}
}

// searchCode constructs a WOM-code by exhaustive search and reports its
// certified guarantee beside the paper's handcrafted code.
func searchCode(args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("search needs <dataBits> <wits>, e.g. search 2 5"))
	}
	k, err := strconv.Atoi(args[0])
	if err != nil {
		fatal(err)
	}
	n, err := strconv.Atoi(args[1])
	if err != nil {
		fatal(err)
	}
	c, err := womcode.Search(k, n)
	if err != nil {
		fatal(err)
	}
	if err := womcode.Verify(c); err != nil {
		fatal(fmt.Errorf("constructed code failed verification: %w", err))
	}
	inv := womcode.Invert(c)
	maxSets, err := womcode.MaxSETTransitions(inv)
	if err != nil {
		fatal(err)
	}
	t := pcm.DefaultTiming()
	m := womcode.CostModel{ResetLatency: t.Reset, Slowdown: t.Slowdown()}
	fmt.Printf("constructed %s: %d-bit data, %d wits, %d guaranteed writes\n",
		c.Name(), c.DataBits(), c.Wits(), c.Writes())
	fmt.Printf("  memory overhead      %.0f%%\n", 100*womcode.Overhead(c))
	fmt.Printf("  inverted max SETs    %d per in-budget write (must be 0)\n", maxSets)
	fmt.Printf("  §3.2 latency bound   %.4f (up to %.1f%% write reduction)\n",
		m.RewriteBound(c.Writes()), 100*(1-m.RewriteBound(c.Writes())))
	if k == 2 && n == 3 {
		fmt.Println("  note: the handcrafted Table 1 code guarantees 2 writes here;")
		fmt.Println("  the generic linear construction cannot match it at n=3.")
	}
	fmt.Println("exhaustive WOM-property verification: ok (both orientations)")
}
