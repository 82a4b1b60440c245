package models

import (
	"fmt"
	"strings"
)

// table is the one place a model name is bound to a recipe: the micro
// models, parameterised by a MicroConfig and trainable at command-line
// scale, and the paper's full-size architectures.
var table = []struct {
	name  string
	micro func(MicroConfig) *specBuilder
	full  func() *specBuilder
}{
	{name: "micro-alexnet", micro: microAlexNet},
	{name: "micro-alexnet-lrn", micro: func(c MicroConfig) *specBuilder { c.UseLRN = true; return microAlexNet(c) }},
	{name: "micro-convnet", micro: microConvNet},
	{name: "micro-resnet", micro: microResNet},
	{name: "mlp", micro: mlp},
	{name: "alexnet", full: alexNet},
	{name: "alexnet-bn", full: alexNetBN},
	{name: "resnet18", full: resNet18},
	{name: "resnet34", full: resNet34},
	{name: "resnet50", full: resNet50},
}

// MicroNames lists the micro model names in table order.
func MicroNames() []string { return names(true) }

// FullSizeNames lists the full-size model names in table order.
func FullSizeNames() []string { return names(false) }

func names(micro bool) []string {
	var out []string
	for _, e := range table {
		if (e.micro != nil) == micro {
			out = append(out, e.name)
		}
	}
	return out
}

// Micro resolves a micro model name to its spec at cfg. An unknown name, a
// zero-width layer (micro-resnet at Width 1) and an input the recipe cannot
// absorb (micro-alexnet's second pool at 2x2) are errors, so a spec that is
// returned builds a network without an empty parameter.
func Micro(name string, cfg MicroConfig) (*ModelSpec, error) {
	for _, e := range table {
		if e.name == name && e.micro != nil {
			return e.micro(cfg).build()
		}
	}
	return nil, unknown(name, true)
}

// FullSize resolves the name of one of the paper's architectures.
func FullSize(name string) (*ModelSpec, error) {
	for _, e := range table {
		if e.name == name && e.full != nil {
			return e.full().build()
		}
	}
	return nil, unknown(name, false)
}

func unknown(name string, micro bool) error {
	return fmt.Errorf("models: unknown model %q (want %s)", name, strings.Join(names(micro), " | "))
}
