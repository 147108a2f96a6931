// Package timeslot discretises wall-clock time into the slots used by the
// historical database, the correlation graph and the estimator.
//
// The paper observes traffic in fixed-width time slots (speeds are averaged
// per road per slot, and historical statistics are kept per slot-of-week).
// A Calendar maps between absolute slot indices (monotonically increasing
// from a fixed epoch, used to address observations) and slot-of-week classes
// (used to address historical statistics, so that Tuesday 08:30 is compared
// with other Tuesdays at 08:30 rather than with Sunday nights).
package timeslot

import (
	"fmt"
	"time"
)

// Calendar maps instants to slot indices. The zero value is not usable; use
// NewCalendar.
type Calendar struct {
	epoch time.Time
	width time.Duration
	// slotsPerDay is 24h / width, computed once: every slot-of-day and
	// profile-class lookup divides by it.
	slotsPerDay int
	// epochWeekday is the epoch day's weekday, from which ProfileClass
	// counts.
	epochWeekday time.Weekday
}

// DefaultSlotWidth is the slot width used throughout the reproduction,
// matching the granularity typical of urban traffic estimation systems.
const DefaultSlotWidth = 10 * time.Minute

// NewCalendar returns a Calendar with the given slot width anchored at epoch.
// The epoch is truncated so that slots align with midnight of the epoch's day
// (simplifying slot-of-day arithmetic). width must divide 24h evenly.
func NewCalendar(epoch time.Time, width time.Duration) (*Calendar, error) {
	if width <= 0 {
		return nil, fmt.Errorf("timeslot: width must be positive, got %v", width)
	}
	if (24*time.Hour)%width != 0 {
		return nil, fmt.Errorf("timeslot: width %v must divide 24h evenly", width)
	}
	midnight := time.Date(epoch.Year(), epoch.Month(), epoch.Day(), 0, 0, 0, 0, epoch.Location())
	return &Calendar{
		epoch:        midnight,
		width:        width,
		slotsPerDay:  int((24 * time.Hour) / width),
		epochWeekday: midnight.Weekday(),
	}, nil
}

// MustCalendar is NewCalendar that panics on error; for tests and fixed
// configurations.
func MustCalendar(epoch time.Time, width time.Duration) *Calendar {
	c, err := NewCalendar(epoch, width)
	if err != nil {
		panic(err)
	}
	return c
}

// Width returns the slot width.
func (c *Calendar) Width() time.Duration { return c.width }

// Epoch returns the calendar's anchor (midnight of the epoch day).
func (c *Calendar) Epoch() time.Time { return c.epoch }

// SlotsPerDay returns the number of slots in 24 hours.
func (c *Calendar) SlotsPerDay() int { return c.slotsPerDay }

// SlotsPerWeek returns the number of slot-of-week classes.
func (c *Calendar) SlotsPerWeek() int { return 7 * c.slotsPerDay }

// secondsPerDay is the length of a calendar day: slots count 24-hour days
// from the epoch.
const secondsPerDay = 24 * 60 * 60

// dayStart returns the instant day whole days after the epoch (before it
// for negative days). It counts in seconds, not a time.Duration, which
// would overflow 292 years from the epoch.
func (c *Calendar) dayStart(day int) time.Time {
	return time.Unix(c.epoch.Unix()+int64(day)*secondsPerDay, 0).In(c.epoch.Location())
}

// Slot returns the absolute slot index for instant t. Instants before the
// epoch yield negative indices. Like Start, it counts whole days and the
// remainder, so it does not overflow where Start does not.
func (c *Calendar) Slot(t time.Time) int {
	// t.Unix() floors, so day is the floor of the day count, and the
	// remainder within that day is in [0, 24h).
	secs := t.Unix() - c.epoch.Unix()
	day := secs / secondsPerDay
	if secs%secondsPerDay < 0 {
		day--
	}
	return int(day)*c.slotsPerDay + int(t.Sub(c.dayStart(int(day)))/c.width)
}

// Start returns the starting instant of absolute slot s. It counts whole
// days and the slot of day, as ProfileClass does, so every int slot below
// 2³¹ in magnitude has its instant.
func (c *Calendar) Start(s int) time.Time {
	return c.dayStart(c.DayOfSlot(s)).Add(time.Duration(c.SlotOfDay(s)) * c.width)
}

// SlotOfDay returns the within-day class of absolute slot s, in
// [0, SlotsPerDay).
func (c *Calendar) SlotOfDay(s int) int {
	n := c.slotsPerDay
	m := s % n
	if m < 0 {
		m += n
	}
	return m
}

// DayOfSlot returns the day index (0 = epoch day) containing absolute slot s.
func (c *Calendar) DayOfSlot(s int) int {
	n := c.slotsPerDay
	if s < 0 {
		return -((-s + n - 1) / n)
	}
	return s / n
}

// HourOfSlot returns the hour-of-day (0..23) at the start of slot s, from
// the slot of day alone: it is Start(s).Hour() on the UTC calendars this
// repository builds, for every width and every slot.
func (c *Calendar) HourOfSlot(s int) int {
	return int(time.Duration(c.SlotOfDay(s)) * c.width / time.Hour)
}

// ProfileClass returns the historical-profile class of absolute slot s.
// Profiles are keyed by slot-of-day crossed with a weekday/weekend flag:
// Tuesday 08:30 pools with every other weekday at 08:30. Weekday classes
// are the slot of day; weekend classes add SlotsPerDay. Pooling weekdays
// (rather than keying by full slot-of-week) gives each class several samples
// per fortnight of history, which slot-of-week keying cannot.
//
// The weekday is counted from the epoch's weekday in 24-hour days, as
// SlotOfDay counts the time of day, so the class repeats every week for
// every int slot, negative ones included, and no time.Time is built. That
// is the wall-clock weekday in any zone without daylight-saving shifts;
// every calendar this repository builds is UTC.
func (c *Calendar) ProfileClass(s int) int {
	n := c.slotsPerDay
	day, slot := s/n, s%n
	if slot < 0 { // floor division for negative slots
		day, slot = day-1, slot+n
	}
	if wd := time.Weekday((int(c.epochWeekday) + day%7 + 7) % 7); wd == time.Saturday || wd == time.Sunday {
		return n + slot
	}
	return slot
}

// NumProfileClasses returns the number of distinct ProfileClass values.
func (c *Calendar) NumProfileClasses() int { return 2 * c.slotsPerDay }
