package main

import (
	"fmt"
	"strings"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/wavelettree"
)

// runFigures prints the exact structures of the paper's Figures 1-3.
func runFigures(bool) {
	fmt.Println("\nFigure 1: Wavelet Tree for 'abracadabra' over {a,b,c,d,r}")
	wt := wavelettree.New(strings.Split("abracadabra", ""))
	printWTDump(wt.Dump(), "  ")

	fmt.Println("\nFigure 2: Wavelet Trie of <0001,0011,0100,00100,0100,00100,0100>")
	a := core.NewAppendOnly()
	for _, s := range []string{"0001", "0011", "0100", "00100", "0100", "00100", "0100"} {
		a.AppendBits(bitstr.MustParse(s))
	}
	printTrieDump(a.Dump(), "  ")

	fmt.Println("\nFigure 3: node split on inserting an unseen string")
	d := core.NewDynamic()
	for i := 0; i < 4; i++ {
		d.AppendBits(bitstr.MustParse("11000"))
		d.AppendBits(bitstr.MustParse("11001"))
	}
	fmt.Println(" before (root label '1100'):")
	printTrieDump(d.Dump(), "  ")
	d.InsertBits(bitstr.MustParse("111"), 3)
	fmt.Println(" after Insert('111', 3): split at label offset 2, new internal")
	fmt.Println(" node with Init-constant bitvector, new leaf:")
	printTrieDump(d.Dump(), "  ")
}

func printTrieDump(d *core.DumpNode, indent string) {
	if d == nil {
		fmt.Println(indent + "(empty)")
		return
	}
	label := d.Label
	if label == "" {
		label = "ε"
	}
	if d.Bits == "" {
		fmt.Printf("%sα: %-8s (leaf)\n", indent, label)
		return
	}
	fmt.Printf("%sα: %-8s β: %s\n", indent, label, d.Bits)
	printTrieDump(d.Kids[0], indent+"    ")
	printTrieDump(d.Kids[1], indent+"    ")
}

func printWTDump(d *wavelettree.DumpNode, indent string) {
	if d == nil {
		return
	}
	if d.Bits == "" {
		fmt.Printf("%s{%s} (leaf)\n", indent, d.Symbols)
		return
	}
	fmt.Printf("%s{%s} β: %s\n", indent, d.Symbols, d.Bits)
	printWTDump(d.Kids[0], indent+"    ")
	printWTDump(d.Kids[1], indent+"    ")
}
