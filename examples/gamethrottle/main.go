// Gamethrottle reproduces the paper's Figure 1/2 scenario end to end:
// the Paper.io game on the Nexus 6P with the default thermal governor
// disabled and enabled, rendering the temperature profiles and the GPU
// frequency residency histograms side by side.
//
//	go run ./examples/gamethrottle
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/pkg/mobisim"
)

func main() {
	// One study runs both arms once; the figures read its engines.
	st, err := experiments.NewStudy(1, []string{"paper.io"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	temps, err := st.TempProfile("paper.io")
	if err != nil {
		log.Fatal(err)
	}
	chart, err := trace.LineChart(trace.LineChartConfig{
		Title: "Package temperature, Paper.io (paper Figure 1)",
	}, temps.Without, temps.With)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(chart)

	res, err := st.Residency("paper.io", mobisim.DomGPU)
	if err != nil {
		log.Fatal(err)
	}
	bars, err := trace.BarChart(
		"GPU frequency residency, Paper.io (paper Figure 2)",
		[]string{"without throttling", "with throttling"},
		res.BarGroups(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bars)

	fmt.Printf("median FPS: without throttling the game runs at its natural rate;\n")
	fmt.Printf("with throttling the 510/600 MHz OPPs disappear and the rate drops\n")
	fmt.Printf("by roughly a third (paper Table I row 1: 35 -> 23 FPS).\n")
}
