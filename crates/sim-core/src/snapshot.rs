//! Snapshotable simulation state: versioned [`StateImage`]s.
//!
//! A memory backend images its *complete* mutable state through
//! [`MemoryBackend::snapshot_state`](crate::mem::MemoryBackend::snapshot_state)
//! and takes it back through
//! [`restore_state`](crate::mem::MemoryBackend::restore_state); a store
//! behind a page cache does the same through its `PageStore` pair in
//! `storage`. Those two faces are the only way a layer images itself.
//! Record/replay checkpoints the backend this way every N requests; the
//! execution engine's side of a run needs no image, because the
//! recording keeps every completion the backend returned.
//!
//! Contract:
//!
//! * Restoring a layer's own image is a semantic no-op: every
//!   subsequent access, energy charge and metric is identical to the
//!   uninterrupted run.
//! * Images are self-describing: a `kind` tag names the producing
//!   layer and a `version` gates schema evolution. Restoring a wrong
//!   kind or unknown version fails loudly with a typed
//!   [`SnapshotError`], never by silently misinterpreting fields.
//! * A restore refuses an image its configuration does not build: a
//!   configuration field that differs, a lane or per-unit vector of
//!   another length, or a counter past [`COUNTER_CEILING`] is a
//!   [`SnapshotError::ShapeMismatch`] naming the field. Each layer
//!   checks before it changes itself, so a refused image leaves it as
//!   it was.
//! * Derived state (probes, memoized pure caches, materialized energy
//!   ledgers) is *not* captured; restore leaves it untouched or resets
//!   it, and the contract above pins that this cannot change outputs.
//!
//! A layer whose JSON codec is its whole state images itself with
//! [`StateImage::of`] and decodes with [`StateImage::decode`].

use util::json::{FromJson, Json, JsonError, ToJson};

use crate::energy::Joules;
use crate::time::Picos;

/// The largest count a counter in a state image may hold: 2^62, the
/// clock ceiling ([`Picos::CEILING`]). A run counts far fewer events
/// than that, so a larger count is forged or corrupt, and refusing it on
/// restore leaves every `+= 1` of the request path 3 × 2^62 of headroom
/// before it wraps.
pub const COUNTER_CEILING: u64 = Picos::CEILING.as_ps();

/// Checks that the counter `field` of a decoded image holds at most
/// [`COUNTER_CEILING`].
///
/// # Errors
///
/// Names the field and its value.
pub fn check_counter(field: impl std::fmt::Display, value: u64) -> Result<(), String> {
    if value > COUNTER_CEILING {
        return Err(format!("{field} is {value}, past the 2^62 counter ceiling"));
    }
    Ok(())
}

/// The most energy an account in a state image may hold: 2^100 fJ. A
/// run that drew a megawatt until the clock ceiling would spend under
/// 2^92 fJ, so more is forged or corrupt, and refusing it leaves the
/// `u128` sums of the request path and of a report's ledger merges
/// nearly 2^128 fJ of headroom.
pub const ENERGY_CEILING: Joules = Joules(1 << 100);

/// Checks that the energy `field` of a decoded image holds at most
/// [`ENERGY_CEILING`].
///
/// # Errors
///
/// Names the field and its value.
pub fn check_energy(field: impl std::fmt::Display, value: Joules) -> Result<(), String> {
    if value > ENERGY_CEILING {
        return Err(format!(
            "{field} is {} fJ, past the 2^100 fJ energy ceiling",
            value.as_fj()
        ));
    }
    Ok(())
}

/// Checks that the configuration field `field` of a decoded image holds
/// `built`, what the restoring backend's configuration built. The
/// request path reads such fields as constants (lane counts, divisors,
/// timings), so an image that disagrees must stop at the restore.
///
/// # Errors
///
/// Names the first leaf that differs and both values (`params.lanes is
/// 0, the configuration has 16`).
pub fn check_config<T: PartialEq + ToJson>(
    field: &str,
    image: &T,
    built: &T,
) -> Result<(), String> {
    if image == built {
        return Ok(());
    }
    let (mut path, mut got, mut want) = (field.to_string(), image.to_json(), built.to_json());
    // Descend while both sides share a layout and one child differs.
    loop {
        let next = match (&got, &want) {
            (Json::Obj(a), Json::Obj(b))
                if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0) =>
            {
                a.iter()
                    .zip(b)
                    .find(|(x, y)| x.1 != y.1)
                    .map(|(x, y)| (format!("{path}.{}", x.0), x.1.clone(), y.1.clone()))
            }
            (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => a
                .iter()
                .zip(b)
                .position(|(x, y)| x != y)
                .map(|i| (format!("{path}[{i}]"), a[i].clone(), b[i].clone())),
            _ => None,
        };
        match next {
            Some(step) => (path, got, want) = step,
            None => break,
        }
    }
    Err(format!(
        "{path} is {}, the configuration has {}",
        got.render(false),
        want.render(false)
    ))
}

/// A versioned, JSON-serializable image of one component's state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// Schema version of `data` for this `kind`.
    pub version: u32,
    /// Which layer produced the image (e.g. `"pram-ctrl/controller"`).
    pub kind: String,
    /// The layer's serialized state.
    pub data: Json,
}

util::json_struct!(StateImage {
    version,
    kind,
    data
});

impl StateImage {
    /// Assembles an image.
    pub fn new(kind: &str, version: u32, data: Json) -> Self {
        StateImage {
            version,
            kind: kind.to_string(),
            data,
        }
    }

    /// Validates the envelope and hands back the payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] / [`SnapshotError::VersionMismatch`]
    /// when the image belongs to a different layer or schema revision.
    pub fn expect(&self, kind: &str, version: u32) -> Result<&Json, SnapshotError> {
        if self.kind != kind {
            return Err(SnapshotError::KindMismatch {
                expected: kind.to_string(),
                got: self.kind.clone(),
            });
        }
        if self.version != version {
            return Err(SnapshotError::VersionMismatch {
                kind: kind.to_string(),
                expected: version,
                got: self.version,
            });
        }
        Ok(&self.data)
    }

    /// The image of `value`, for a layer whose JSON codec is its whole
    /// state.
    pub fn of(kind: &str, version: u32, value: &impl ToJson) -> Self {
        StateImage::new(kind, version, value.to_json())
    }

    /// Decodes the payload of an image [`StateImage::of`] made.
    ///
    /// # Errors
    ///
    /// As [`StateImage::expect`], and [`SnapshotError::Malformed`] when
    /// the payload does not decode as a `T`.
    pub fn decode<T: FromJson>(&self, kind: &str, version: u32) -> Result<T, SnapshotError> {
        T::from_json(self.expect(kind, version)?).map_err(|e| SnapshotError::malformed(kind, e))
    }
}

/// Why a snapshot could not be restored (or taken).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The image belongs to a different layer.
    KindMismatch {
        /// The kind the restoring component expected.
        expected: String,
        /// The kind found in the image.
        got: String,
    },
    /// The image's schema revision is not the one this build writes.
    VersionMismatch {
        /// The image kind.
        kind: String,
        /// The schema version this build understands.
        expected: u32,
        /// The version found in the image.
        got: u32,
    },
    /// A payload field failed to parse back.
    Malformed {
        /// The image kind.
        kind: String,
        /// The underlying JSON conversion error.
        error: JsonError,
    },
    /// The component does not support snapshotting.
    Unsupported {
        /// A label naming the component.
        component: String,
    },
    /// The image's shape disagrees with the restoring component's
    /// static configuration (e.g. a different channel/module count), or
    /// one of its counters lies outside what a run can reach.
    ShapeMismatch {
        /// The image kind.
        kind: String,
        /// What disagreed.
        detail: String,
    },
}

impl SnapshotError {
    /// Convenience constructor for [`SnapshotError::Malformed`].
    pub fn malformed(kind: &str, error: JsonError) -> Self {
        SnapshotError::Malformed {
            kind: kind.to_string(),
            error,
        }
    }

    /// Convenience constructor for [`SnapshotError::Unsupported`].
    pub fn unsupported(component: &str) -> Self {
        SnapshotError::Unsupported {
            component: component.to_string(),
        }
    }

    /// Convenience constructor for [`SnapshotError::ShapeMismatch`].
    pub fn shape(kind: &str, detail: impl Into<String>) -> Self {
        SnapshotError::ShapeMismatch {
            kind: kind.to_string(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::KindMismatch { expected, got } => {
                write!(f, "state image kind mismatch: expected {expected:?}, got {got:?}")
            }
            SnapshotError::VersionMismatch {
                kind,
                expected,
                got,
            } => write!(
                f,
                "state image {kind:?} version mismatch: this build writes v{expected}, image is v{got}"
            ),
            SnapshotError::Malformed { kind, error } => {
                write!(f, "malformed {kind:?} state image: {error}")
            }
            SnapshotError::Unsupported { component } => {
                write!(f, "{component} does not support state snapshots")
            }
            SnapshotError::ShapeMismatch { kind, detail } => {
                write!(f, "state image {kind:?} shape mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Counter {
        count: u64,
        total: u64,
    }
    util::json_struct!(Counter { count, total });

    const KIND: &str = "test/counter";

    #[test]
    fn round_trip_is_identity() {
        let c = Counter { count: 3, total: 9 };
        let img = StateImage::of(KIND, 1, &c);
        assert_eq!(img.decode::<Counter>(KIND, 1).unwrap(), c);
    }

    #[test]
    fn envelope_mismatches_are_loud_typed_errors() {
        let c = Counter { count: 1, total: 2 };
        let mut img = StateImage::of(KIND, 1, &c);
        img.kind = "test/other".into();
        assert!(matches!(
            img.decode::<Counter>(KIND, 1),
            Err(SnapshotError::KindMismatch { .. })
        ));

        let mut img = StateImage::of(KIND, 1, &c);
        img.version = 99;
        assert!(matches!(
            img.decode::<Counter>(KIND, 1),
            Err(SnapshotError::VersionMismatch { got: 99, .. })
        ));

        let mut img = StateImage::of(KIND, 1, &c);
        img.data = Json::Str("garbage".into());
        let err = img.decode::<Counter>(KIND, 1).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }));
        assert!(err.to_string().contains("test/counter"), "{err}");
    }

    #[test]
    fn configuration_checks_name_the_first_differing_leaf() {
        #[derive(Debug, Clone, PartialEq)]
        struct Params {
            lanes: u64,
            times: Vec<u64>,
        }
        util::json_struct!(Params { lanes, times });
        let built = Params {
            lanes: 16,
            times: vec![1, 2],
        };
        assert_eq!(check_config("params", &built.clone(), &built), Ok(()));
        let zero = Params {
            lanes: 0,
            ..built.clone()
        };
        assert_eq!(
            check_config("params", &zero, &built).unwrap_err(),
            "params.lanes is 0, the configuration has 16"
        );
        let late = Params {
            times: vec![1, 3],
            ..built.clone()
        };
        assert_eq!(
            check_config("params", &late, &built).unwrap_err(),
            "params.times[1] is 3, the configuration has 2"
        );
        // Lists of another length differ as a whole.
        let short = Params {
            times: vec![1],
            ..built.clone()
        };
        assert_eq!(
            check_config("params", &short, &built).unwrap_err(),
            "params.times is [1], the configuration has [1,2]"
        );
    }

    #[test]
    fn images_round_trip_through_json_text() {
        let img = StateImage::new("test/counter", 1, Json::U64(7));
        let back = StateImage::from_json_str(&img.to_json_string()).unwrap();
        assert_eq!(back, img);
    }
}
