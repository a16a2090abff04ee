// Layerprobe: an interactive reproduction of the paper's Fig. 1.
//
// Ten clients in two label groups train a VGG-16-shaped network locally;
// for each probed weight layer the pairwise Euclidean distance matrix over
// that layer's weights is rendered as an ASCII heatmap. Early convolutional
// layers show no client structure; the final fully connected (classifier)
// layer shows a crisp two-block pattern — the observation FedClust's
// partial-weight uploads exploit.
//
//	go run ./examples/layerprobe
package main

import (
	"fmt"
	"os"

	"fedclust/internal/experiments"
)

func main() {
	opts := experiments.DefaultFig1Options()
	// Keep the example snappy: 3 clients per group, smaller local sets.
	opts.Quick = true

	fmt.Println("training 6 clients (two groups: classes 0-4 vs 5-9) on a VGG-16-shaped net...")
	res := experiments.RunFig1(opts)
	fmt.Printf("ground-truth groups: %v\n\n", res.Truth)
	res.Report().Render(os.Stdout)
	fmt.Println("\nReading the heatmaps: lighter = more similar (smaller distance).")
	fmt.Println("Layers 1 and 7 (convolutional) are nearly uniform — they carry no")
	fmt.Println("client-distribution signal. Layers 14 and 16 (fully connected) show")
	fmt.Println("the two client groups as light diagonal blocks, which is why FedClust")
	fmt.Println("clusters on final-layer weights only.")
}
