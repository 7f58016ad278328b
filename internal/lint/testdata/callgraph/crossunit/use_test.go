package crossunit_test

import "example.test/pkg"

type decider interface{ Decide(crossunit.Decision) }

func use(d decider) { d.Decide(crossunit.Decision{}) }
