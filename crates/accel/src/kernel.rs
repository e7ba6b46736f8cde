//! Kernel images and the `packData`/`pushData`/`unpackData` programming
//! model (Figure 10).
//!
//! The host packs code segments for each application plus shared common
//! code into one image with a metadata header (`packData`), pushes the
//! image bytes to the accelerator's memory (`pushData`), and the server
//! parses the metadata and loads each segment to its target address
//! (`unpackData`) before booting agents at the segment entry points.

/// Magic bytes heading every image.
const MAGIC: u32 = 0xD7A7_1E55; // "DRAmLESS"

/// Wire bytes of one segment besides its name and payload: name length,
/// load address, entry flag, entry point and payload length.
const SEGMENT_HEADER: usize = 2 + 8 + 1 + 8 + 4;

/// One code segment of an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name ("app0", "shared", …).
    pub name: String,
    /// Accelerator memory address to load the segment at.
    pub load_addr: u64,
    /// Boot entry point (the "magic address" the server writes into the
    /// agent's L2), `None` for non-executable data/shared segments.
    pub entry: Option<u64>,
    /// The code/data bytes.
    pub payload: Vec<u8>,
}

/// Errors produced when parsing an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseImageError {
    /// The magic header is absent or wrong.
    BadMagic,
    /// The image is shorter than its header claims.
    Truncated,
    /// A segment name is not valid UTF-8.
    BadName,
    /// The header claims zero segments; an image carries at least one.
    NoSegments,
}

impl std::fmt::Display for ParseImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseImageError::BadMagic => write!(f, "image header magic mismatch"),
            ParseImageError::Truncated => write!(f, "image shorter than header claims"),
            ParseImageError::BadName => write!(f, "segment name is not valid utf-8"),
            ParseImageError::NoSegments => write!(f, "image header claims zero segments"),
        }
    }
}

impl std::error::Error for ParseImageError {}

/// A packed kernel image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelImage {
    segments: Vec<Segment>,
}

impl KernelImage {
    /// `packData`: builds an image from segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or if the wire format cannot carry
    /// them: more than `u32::MAX` segments, a name over `u16::MAX` bytes
    /// or a payload over `u32::MAX` bytes.
    pub fn pack(segments: Vec<Segment>) -> Self {
        assert!(!segments.is_empty(), "an image needs at least one segment");
        assert!(
            u32::try_from(segments.len()).is_ok(),
            "an image holds at most u32::MAX segments"
        );
        for s in &segments {
            assert!(
                u16::try_from(s.name.len()).is_ok(),
                "segment name is over u16::MAX bytes"
            );
            assert!(
                u32::try_from(s.payload.len()).is_ok(),
                "segment payload is over u32::MAX bytes"
            );
        }
        KernelImage { segments }
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total payload bytes (what `pushData` must transfer).
    pub fn payload_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.payload.len() as u64).sum()
    }

    /// Serializes to wire bytes.
    ///
    /// Layout, every integer big-endian: `magic u32 | count u32 |
    /// {name_len u16, name, load u64, entry_present u8, entry u64,
    /// len u32, payload}*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.extend_from_slice(&(self.segments.len() as u32).to_be_bytes());
        for s in &self.segments {
            buf.extend_from_slice(&(s.name.len() as u16).to_be_bytes());
            buf.extend_from_slice(s.name.as_bytes());
            buf.extend_from_slice(&s.load_addr.to_be_bytes());
            buf.push(u8::from(s.entry.is_some()));
            buf.extend_from_slice(&s.entry.unwrap_or(0).to_be_bytes());
            buf.extend_from_slice(&(s.payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&s.payload);
        }
        buf
    }

    /// `unpackData`: parses wire bytes back into an image.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseImageError`] when the magic is wrong, the header
    /// claims no segments, the buffer is truncated, or a name is invalid.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ParseImageError> {
        if data.len() < 8 {
            return Err(ParseImageError::Truncated);
        }
        let mut rest = data;
        if u32::from_be_bytes(take(&mut rest)?) != MAGIC {
            return Err(ParseImageError::BadMagic);
        }
        let count = u32::from_be_bytes(take(&mut rest)?) as usize;
        if count == 0 {
            return Err(ParseImageError::NoSegments);
        }
        // The count comes off the wire: reserve no more segments than
        // the bytes left could hold.
        let mut segments = Vec::with_capacity(count.min(rest.len() / SEGMENT_HEADER));
        for _ in 0..count {
            let name_len = u16::from_be_bytes(take(&mut rest)?) as usize;
            let name = String::from_utf8(split(&mut rest, name_len)?.to_vec())
                .map_err(|_| ParseImageError::BadName)?;
            let load_addr = u64::from_be_bytes(take(&mut rest)?);
            let [has_entry] = take(&mut rest)?;
            let entry_raw = u64::from_be_bytes(take(&mut rest)?);
            let len = u32::from_be_bytes(take(&mut rest)?) as usize;
            segments.push(Segment {
                name,
                load_addr,
                entry: (has_entry != 0).then_some(entry_raw),
                payload: split(&mut rest, len)?.to_vec(),
            });
        }
        Ok(KernelImage { segments })
    }

    /// The executable segments in image order (what the server schedules
    /// onto agents).
    pub fn executables(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.entry.is_some())
    }
}

/// Splits the first `n` bytes off `rest`.
fn split<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], ParseImageError> {
    let (head, tail) = rest.split_at_checked(n).ok_or(ParseImageError::Truncated)?;
    *rest = tail;
    Ok(head)
}

/// Splits the first `N` bytes off `rest` as an array.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], ParseImageError> {
    let (head, tail) = rest.split_first_chunk().ok_or(ParseImageError::Truncated)?;
    *rest = tail;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> KernelImage {
        KernelImage::pack(vec![
            Segment {
                name: "shared".into(),
                load_addr: 0x1000,
                entry: None,
                payload: b"common-code".to_vec(),
            },
            Segment {
                name: "app0".into(),
                load_addr: 0x2000,
                entry: Some(0x2000),
                payload: b"kernel-code-0".to_vec(),
            },
            Segment {
                name: "app1".into(),
                load_addr: 0x4000,
                entry: Some(0x4010),
                payload: b"kernel-code-1!".to_vec(),
            },
        ])
    }

    #[test]
    fn pack_unpack_round_trip() {
        let img = image();
        let wire = img.to_bytes();
        let back = KernelImage::from_bytes(&wire).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn payload_accounting() {
        let img = image();
        assert_eq!(img.payload_bytes(), 11 + 13 + 14);
    }

    #[test]
    fn executables_excludes_shared() {
        let img = image();
        let names: Vec<&str> = img.executables().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["app0", "app1"]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = image().to_bytes();
        wire[0] ^= 0xFF;
        assert_eq!(
            KernelImage::from_bytes(&wire),
            Err(ParseImageError::BadMagic)
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let wire = image().to_bytes();
        for cut in [0, 4, 9, 12, wire.len() - 1] {
            assert!(
                KernelImage::from_bytes(&wire[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        // A forged segment count must not size an allocation: the
        // header alone claims 2^32 - 1 segments.
        assert_eq!(
            KernelImage::from_bytes(&[0xD7, 0xA7, 0x1E, 0x55, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(ParseImageError::Truncated)
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_image_rejected() {
        KernelImage::pack(vec![]);
    }

    #[test]
    fn zero_segment_header_rejected() {
        let err = KernelImage::from_bytes(&[0xD7, 0xA7, 0x1E, 0x55, 0, 0, 0, 0]);
        assert_eq!(err, Err(ParseImageError::NoSegments));
        assert_eq!(
            err.unwrap_err().to_string(),
            "image header claims zero segments"
        );
    }

    // The u16 name length is the limit a test can reach; the u32
    // payload limit would need a 4 GiB allocation to trip.
    #[test]
    #[should_panic(expected = "name is over u16::MAX bytes")]
    fn overlong_segment_name_rejected() {
        KernelImage::pack(vec![Segment {
            name: "n".repeat(70_000),
            load_addr: 0,
            entry: None,
            payload: Vec::new(),
        }]);
    }
}
