//! Snapshotable simulation state: the [`Snapshot`] contract.
//!
//! Every stateful layer behind a memory backend — PRAM modules, the
//! controller, FTLs, page caches, the host staging stack — implements
//! [`Snapshot`]: it can serialize its *complete* mutable state into a
//! versioned, JSON-serializable [`StateImage`] and later restore from
//! one, such that a restored instance continues byte-identically to the
//! original. Record/replay checkpoints the backend this way every N
//! requests; the execution engine's side of a run needs no image,
//! because the recording keeps every completion the backend returned.
//!
//! Contract:
//!
//! * `restore(snapshot())` must be a semantic no-op: every subsequent
//!   access, energy charge and metric is identical to the uninterrupted
//!   run.
//! * Images are self-describing: a `kind` tag names the producing
//!   layer and a `version` gates schema evolution. Restoring a wrong
//!   kind or unknown version fails loudly with a typed
//!   [`SnapshotError`], never by silently misinterpreting fields.
//! * Derived state (probes, memoized pure caches, materialized energy
//!   ledgers) is *not* captured; restore leaves it untouched or resets
//!   it, and the contract above pins that this cannot change outputs.

use util::json::{Json, JsonError};

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

/// A component whose complete mutable state can round-trip through a
/// [`StateImage`].
pub trait Snapshot {
    /// Serializes the component's state.
    fn snapshot(&self) -> StateImage;

    /// Restores the component from `image`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the image belongs to a
    /// different layer, carries an unknown schema version, or fails to
    /// parse; the component is left unchanged on error where the
    /// implementation can afford it (envelope checks always precede
    /// mutation).
    fn restore(&mut self, image: &StateImage) -> Result<(), SnapshotError>;
}

/// Implements [`Snapshot`] for a type whose `ToJson`/`FromJson` pair
/// covers its complete mutable state: snapshot serializes `self`,
/// restore parses and replaces `*self` wholesale.
///
/// Only use this for types with no unserialized runtime attachments
/// (probes are the usual offender — types carrying one need a manual
/// impl that preserves it across restore).
#[macro_export]
macro_rules! snapshot_via_json {
    ($ty:ty, $kind:expr, $version:expr) => {
        impl $crate::snapshot::Snapshot for $ty {
            fn snapshot(&self) -> $crate::snapshot::StateImage {
                $crate::snapshot::StateImage::new(
                    $kind,
                    $version,
                    util::json::ToJson::to_json(self),
                )
            }

            fn restore(
                &mut self,
                image: &$crate::snapshot::StateImage,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                let data = image.expect($kind, $version)?;
                *self = <$ty as util::json::FromJson>::from_json(data)
                    .map_err(|e| $crate::snapshot::SnapshotError::malformed($kind, e))?;
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::{FromJson, ToJson};

    #[derive(Debug, Clone, PartialEq)]
    struct Counter {
        count: u64,
        total: u64,
    }
    util::json_struct!(Counter { count, total });
    crate::snapshot_via_json!(Counter, "test/counter", 1);

    #[test]
    fn round_trip_is_identity() {
        let mut c = Counter { count: 3, total: 9 };
        let img = c.snapshot();
        c.count = 100;
        c.restore(&img).unwrap();
        assert_eq!(c, Counter { count: 3, total: 9 });
    }

    #[test]
    fn envelope_mismatches_are_loud_typed_errors() {
        let c = Counter { count: 1, total: 2 };
        let mut img = c.snapshot();
        img.kind = "test/other".into();
        let mut d = c.clone();
        assert!(matches!(
            d.restore(&img),
            Err(SnapshotError::KindMismatch { .. })
        ));

        let mut img = c.snapshot();
        img.version = 99;
        assert!(matches!(
            d.restore(&img),
            Err(SnapshotError::VersionMismatch { got: 99, .. })
        ));

        let mut img = c.snapshot();
        img.data = Json::Str("garbage".into());
        let err = d.restore(&img).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }));
        assert!(err.to_string().contains("test/counter"), "{err}");
    }

    #[test]
    fn images_round_trip_through_json_text() {
        let img = StateImage::new("test/counter", 1, Json::U64(7));
        let back = StateImage::from_json_str(&img.to_json_string()).unwrap();
        assert_eq!(back, img);
    }
}
