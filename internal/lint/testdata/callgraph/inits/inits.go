// Package inits declares two init functions. Each gets its own node, so
// the edges of both bodies survive: a graph keyed by name alone keeps
// only the last init and loses first's edge.
package inits

var registry []string

func register(name string) { registry = append(registry, name) }

func first() string { return "first" }

func second() string { return "second" }

func init() { register(first()) }

func init() { register(second()) }
