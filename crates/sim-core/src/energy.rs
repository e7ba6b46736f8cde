//! Energy accounting.
//!
//! The paper's energy results (Figs. 1, 17, 20, 21) are *decompositions*:
//! each joule is attributed to a component class (host CPU cycles spent in
//! the storage stack, DRAM buffer traffic, NVM array operations, PE
//! compute, interconnect transfers …). We mirror that with [`EnergyBook`],
//! a ledger of per-component [`EnergyAccount`]s. Components charge either
//! per-event energy (picojoules per access) or static power integrated
//! over busy time.

use crate::time::Picos;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};

/// An amount of energy, stored as femtojoules for exact integer math.
///
/// # Examples
///
/// ```
/// use sim_core::energy::{Joules, Watts};
/// use sim_core::Picos;
///
/// let e = Joules::from_pj(50) + Watts::from_mw(100.0) * Picos::from_us(1);
/// assert!((e.as_uj() - 0.10005).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Joules(pub u128);

util::json_newtype!(Joules);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0);

    /// From femtojoules.
    #[inline]
    pub const fn from_fj(fj: u128) -> Self {
        Joules(fj)
    }

    /// From picojoules.
    #[inline]
    pub const fn from_pj(pj: u64) -> Self {
        Joules(pj as u128 * 1_000)
    }

    /// From nanojoules.
    #[inline]
    pub const fn from_nj(nj: u64) -> Self {
        Joules(nj as u128 * 1_000_000)
    }

    /// From fractional picojoules (rounds to femtojoules).
    ///
    /// # Panics
    ///
    /// Panics if `pj` is negative or not finite.
    #[inline]
    pub fn from_pj_f64(pj: f64) -> Self {
        assert!(pj.is_finite() && pj >= 0.0, "invalid picojoule value: {pj}");
        Joules((pj * 1_000.0).round() as u128)
    }

    /// Raw femtojoules.
    #[inline]
    pub const fn as_fj(self) -> u128 {
        self.0
    }

    /// Fractional picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional microjoules.
    #[inline]
    pub fn as_uj(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional millijoules.
    #[inline]
    pub fn as_mj(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Fractional joules.
    #[inline]
    pub fn as_j(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Scales by an integer factor.
    #[inline]
    pub fn scaled(self, n: u64) -> Joules {
        Joules(self.0 * n as u128)
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fj = self.0;
        if fj >= 10u128.pow(15) {
            write!(f, "{:.3}J", self.as_j())
        } else if fj >= 10u128.pow(12) {
            write!(f, "{:.3}mJ", self.as_mj())
        } else if fj >= 10u128.pow(9) {
            write!(f, "{:.3}uJ", self.as_uj())
        } else if fj >= 10u128.pow(3) {
            write!(f, "{:.3}pJ", self.as_pj())
        } else {
            write!(f, "{fj}fJ")
        }
    }
}

/// A power draw. Multiplying by [`Picos`] yields [`Joules`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

util::json_newtype!(Watts);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// From watts.
    #[inline]
    pub fn from_w(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "invalid power: {w}");
        Watts(w)
    }

    /// From milliwatts.
    #[inline]
    pub fn from_mw(mw: f64) -> Self {
        Self::from_w(mw / 1e3)
    }

    /// In watts.
    #[inline]
    pub fn as_w(self) -> f64 {
        self.0
    }

    /// In milliwatts.
    #[inline]
    pub fn as_mw(self) -> f64 {
        self.0 * 1e3
    }
}

impl std::ops::Mul<Picos> for Watts {
    type Output = Joules;
    /// Integrates this power over a time span.
    fn mul(self, t: Picos) -> Joules {
        // W * ps = 1e-12 J = 1e3 fJ.
        Joules((self.0 * t.as_ps() as f64 * 1e3).round() as u128)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}W", self.0)
        } else {
            write!(f, "{:.3}mW", self.as_mw())
        }
    }
}

/// One component's running energy total plus event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyAccount {
    /// Accumulated energy.
    pub energy: Joules,
    /// Number of charge events.
    pub events: u64,
}

util::json_struct!(EnergyAccount { energy, events });

impl EnergyAccount {
    /// Charges `e` as one event.
    pub fn charge(&mut self, e: Joules) {
        self.energy += e;
        self.events += 1;
    }

    /// Charges a pre-summed batch of `events` events totalling `e`: the
    /// account `events` [`Self::charge`] calls summing to `e` leave.
    pub fn charge_many(&mut self, e: Joules, events: u64) {
        self.energy += e;
        self.events += events;
    }

    /// Checks a decoded account: its energy at most
    /// [`ENERGY_CEILING`](crate::snapshot::ENERGY_CEILING) and its event
    /// count at most [`COUNTER_CEILING`](crate::snapshot::COUNTER_CEILING).
    ///
    /// # Errors
    ///
    /// Names the field past its ceiling (`energy is ...`).
    pub fn check(&self) -> Result<(), String> {
        crate::snapshot::check_energy("energy", self.energy)?;
        crate::snapshot::check_counter("events", self.events)
    }
}

/// A ledger of per-component energy, keyed by a stable component label.
///
/// Component labels are free-form strings chosen by the subsystems
/// ("pe.compute", "pram.array", "host.stack", …); the Fig. 17 table groups
/// them by prefix.
///
/// # Examples
///
/// ```
/// use sim_core::energy::{EnergyBook, Joules};
///
/// let mut book = EnergyBook::new();
/// book.charge("pram.array", Joules::from_pj(120));
/// book.charge("pram.array", Joules::from_pj(120));
/// book.charge("pe.compute", Joules::from_nj(1));
/// assert_eq!(book.component("pram.array").unwrap().events, 2);
/// assert_eq!(book.total(), Joules::from_pj(240) + Joules::from_nj(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBook {
    accounts: BTreeMap<String, EnergyAccount>,
}

util::json_struct!(EnergyBook { accounts });

impl EnergyBook {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `e` to `component`, creating the account on first use.
    pub fn charge(&mut self, component: &str, e: Joules) {
        self.charge_many(component, e, 1);
    }

    /// Charges a pre-summed batch of `events` charges totalling `e`.
    ///
    /// Equivalent to `events` individual [`EnergyBook::charge`] calls whose
    /// energies sum to `e` — [`Joules`] is an integer femtojoule count, so
    /// locally accumulated sums are exact. Batches with `events == 0` are
    /// dropped without creating the account, matching the per-call path
    /// (a label only appears once something is charged to it).
    pub fn charge_many(&mut self, component: &str, e: Joules, events: u64) {
        if events == 0 {
            return;
        }
        // One walk of the map on a hit, borrowing the `&str` key:
        // charging is per memory request on the hot simulation paths, so
        // neither an owned `String` per charge nor a second lookup is
        // worth paying. Only a label's first charge allocates.
        match self.accounts.get_mut(component) {
            Some(acct) => acct.charge_many(e, events),
            None => {
                self.accounts
                    .insert(component.to_owned(), EnergyAccount { energy: e, events });
            }
        }
    }

    /// Charges static power integrated over `dur`.
    pub fn charge_power(&mut self, component: &str, p: Watts, dur: Picos) {
        self.charge(component, p * dur);
    }

    /// Checks every account of a decoded ledger
    /// ([`EnergyAccount::check`]).
    ///
    /// # Errors
    ///
    /// Names the account and its field (`accounts[nor.read].events is
    /// ...`).
    pub fn check(&self) -> Result<(), String> {
        for (label, acct) in &self.accounts {
            acct.check().map_err(|e| format!("accounts[{label}].{e}"))?;
        }
        Ok(())
    }

    /// Looks up one account.
    pub fn component(&self, component: &str) -> Option<&EnergyAccount> {
        self.accounts.get(component)
    }

    /// Energy of one component (zero if absent).
    pub fn energy_of(&self, component: &str) -> Joules {
        self.accounts
            .get(component)
            .map(|a| a.energy)
            .unwrap_or(Joules::ZERO)
    }

    /// Sum of energies of all components whose label starts with `prefix`.
    pub fn energy_of_prefix(&self, prefix: &str) -> Joules {
        self.accounts
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, a)| a.energy)
            .sum()
    }

    /// Grand total.
    pub fn total(&self) -> Joules {
        self.accounts.values().map(|a| a.energy).sum()
    }

    /// Iterates accounts in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EnergyAccount)> {
        self.accounts.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another ledger into this one.
    ///
    /// The sums saturate. A restore holds each account to its ceilings,
    /// but a report merges many ledgers (the PRAM controller's 32
    /// modules), so accounts forged at the ceiling could still sum past
    /// `u64`; a run comes nowhere near.
    pub fn merge(&mut self, other: &EnergyBook) {
        for (k, v) in &other.accounts {
            let acc = self.accounts.entry(k.clone()).or_default();
            acc.energy = Joules(acc.energy.0.saturating_add(v.energy.0));
            acc.events = acc.events.saturating_add(v.events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joules_conversions() {
        assert_eq!(Joules::from_pj(1), Joules::from_fj(1_000));
        assert_eq!(Joules::from_nj(1), Joules::from_pj(1_000));
        assert_eq!(Joules::from_pj_f64(2.5), Joules::from_fj(2_500));
        assert!((Joules::from_nj(1_500).as_uj() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        // 1 W for 1 us = 1 uJ.
        let e = Watts::from_w(1.0) * Picos::from_us(1);
        assert!((e.as_uj() - 1.0).abs() < 1e-9);
        // 100 mW for 10 ns = 1 nJ.
        let e = Watts::from_mw(100.0) * Picos::from_ns(10);
        assert!((e.as_pj() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn book_accumulates_and_groups() {
        let mut b = EnergyBook::new();
        b.charge("host.stack.copy", Joules::from_nj(10));
        b.charge("host.stack.syscall", Joules::from_nj(5));
        b.charge("pe.compute", Joules::from_nj(1));
        assert_eq!(b.energy_of_prefix("host.stack"), Joules::from_nj(15));
        assert_eq!(b.energy_of_prefix("pe"), Joules::from_nj(1));
        assert_eq!(b.total(), Joules::from_nj(16));
        assert_eq!(b.energy_of("missing"), Joules::ZERO);
    }

    #[test]
    fn book_merge() {
        let mut a = EnergyBook::new();
        a.charge("x", Joules::from_pj(1));
        let mut b = EnergyBook::new();
        b.charge("x", Joules::from_pj(2));
        b.charge("y", Joules::from_pj(3));
        a.merge(&b);
        assert_eq!(a.energy_of("x"), Joules::from_pj(3));
        assert_eq!(a.energy_of("y"), Joules::from_pj(3));
        assert_eq!(a.component("x").unwrap().events, 2);
    }

    #[test]
    fn joules_display() {
        assert_eq!(Joules::from_pj(5).to_string(), "5.000pJ");
        assert_eq!(Joules::from_nj(5_000).to_string(), "5.000uJ");
        assert_eq!(Joules::from_fj(10).to_string(), "10fJ");
    }

    #[test]
    fn batched_and_single_charges_keep_the_same_ledger() {
        // `charge` and `charge_many` share one lookup path: a label's
        // first charge creates it with exactly that charge, later ones
        // add to it, an empty batch creates nothing, and the ledger
        // iterates in label order however the labels arrived.
        let mut single = EnergyBook::new();
        let mut batched = EnergyBook::new();
        for (label, pj) in [("b", 3u64), ("a", 1), ("b", 4), ("c", 2), ("a", 5)] {
            single.charge(label, Joules::from_pj(pj));
            batched.charge_many(label, Joules::from_pj(pj), 1);
        }
        batched.charge_many("z", Joules::from_pj(9), 0);
        assert_eq!(single, batched);
        let labels: Vec<_> = single.iter().map(|(k, a)| (k, a.events)).collect();
        assert_eq!(labels, [("a", 2), ("b", 2), ("c", 1)]);
        assert_eq!(single.energy_of("b"), Joules::from_pj(7));
        assert!(batched.component("z").is_none());
    }

    #[test]
    fn decoded_ledgers_are_held_to_their_ceilings_and_merges_saturate() {
        use crate::snapshot::{COUNTER_CEILING, ENERGY_CEILING};
        let mut book = EnergyBook::new();
        book.charge_many("nor.read", ENERGY_CEILING, COUNTER_CEILING);
        assert_eq!(book.check(), Ok(()));
        let mut past = book.clone();
        past.charge("nor.read", Joules::from_fj(1));
        let err = past.check().unwrap_err();
        assert!(err.starts_with("accounts[nor.read].energy is"), "{err}");
        let mut past = book.clone();
        past.charge_many("nor.read", Joules::ZERO, 1);
        let err = past.check().unwrap_err();
        assert!(err.starts_with("accounts[nor.read].events is"), "{err}");
        // Merging many ledgers at the ceiling saturates instead of
        // wrapping.
        let mut sum = EnergyBook::new();
        for _ in 0..8 {
            sum.merge(&book);
        }
        assert_eq!(sum.component("nor.read").unwrap().events, u64::MAX);
        assert_eq!(sum.energy_of("nor.read"), Joules(ENERGY_CEILING.0 * 8));
    }

    #[test]
    fn charge_power_matches_manual_integration() {
        let mut b = EnergyBook::new();
        b.charge_power("pe", Watts::from_w(2.0), Picos::from_us(3));
        assert_eq!(b.energy_of("pe"), Watts::from_w(2.0) * Picos::from_us(3));
    }
}
