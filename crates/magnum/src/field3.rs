//! Structure-of-arrays magnetization storage.
//!
//! [`Field3`] keeps the x/y/z components of a per-cell vector field in
//! three contiguous `f64` planes. The hot loops (RHS sweep, integrator
//! stage fusion, FFT demag packing) stream the planes directly, which is
//! the layout MuMax3 and OOMMF use so the inner loops autovectorize;
//! everything else — probes, snapshots, tests — keeps a `Vec3`-shaped
//! view through [`MagRead`] and the [`Field3::get`]/[`Field3::iter`]
//! accessors.
//!
//! The conversion between layouts is a pure permutation of `f64` values
//! (no arithmetic), so round-tripping through [`Field3::from_vec3s`] and
//! [`Field3::to_vec`] is bitwise lossless. That is what lets the SoA
//! refactor preserve the determinism contract: the same per-cell
//! expressions run on the same bit patterns, only the storage order
//! changed.

use crate::math::Vec3;
use crate::par::SendPtr;

/// Read-only, `Vec3`-shaped view over any magnetization storage.
///
/// Probes and snapshots are generic over this trait so they accept both
/// the simulation's planar [`Field3`] state and plain `Vec<Vec3>` / slice
/// buffers from tests and tools.
pub trait MagRead {
    /// Number of cells.
    fn len(&self) -> usize;
    /// The vector at linear cell index `i`.
    fn at(&self, i: usize) -> Vec3;
    /// True when the field has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MagRead for [Vec3] {
    fn len(&self) -> usize {
        <[Vec3]>::len(self)
    }
    #[inline]
    fn at(&self, i: usize) -> Vec3 {
        self[i]
    }
}

impl MagRead for Vec<Vec3> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    #[inline]
    fn at(&self, i: usize) -> Vec3 {
        self[i]
    }
}

impl<const N: usize> MagRead for [Vec3; N] {
    fn len(&self) -> usize {
        N
    }
    #[inline]
    fn at(&self, i: usize) -> Vec3 {
        self[i]
    }
}

impl MagRead for Field3 {
    fn len(&self) -> usize {
        Field3::len(self)
    }
    #[inline]
    fn at(&self, i: usize) -> Vec3 {
        self.get(i)
    }
}

/// A vector field stored as three contiguous component planes.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Field3 {
    /// An all-zero field with `n` cells.
    pub fn zeros(n: usize) -> Self {
        Field3 {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        }
    }

    /// Converts from array-of-structs storage (bitwise lossless).
    pub fn from_vec3s(v: &[Vec3]) -> Self {
        Field3 {
            x: v.iter().map(|p| p.x).collect(),
            y: v.iter().map(|p| p.y).collect(),
            z: v.iter().map(|p| p.z).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the field has no cells.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The vector at cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Overwrites the vector at cell `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Vec3) {
        self.x[i] = v.x;
        self.y[i] = v.y;
        self.z[i] = v.z;
    }

    /// Adds `v` into the vector at cell `i`.
    #[inline]
    pub fn add(&mut self, i: usize, v: Vec3) {
        self.x[i] += v.x;
        self.y[i] += v.y;
        self.z[i] += v.z;
    }

    /// Sets every cell to `v`.
    pub fn fill(&mut self, v: Vec3) {
        self.x.fill(v.x);
        self.y.fill(v.y);
        self.z.fill(v.z);
    }

    /// Copies all planes from `other` (lengths must match).
    pub fn copy_from(&mut self, other: &Field3) {
        self.x.copy_from_slice(&other.x);
        self.y.copy_from_slice(&other.y);
        self.z.copy_from_slice(&other.z);
    }

    /// Converts to array-of-structs storage (bitwise lossless).
    pub fn to_vec(&self) -> Vec<Vec3> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Iterates over cells as `Vec3` values.
    pub fn iter(&self) -> impl Iterator<Item = Vec3> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The x-component plane.
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// The y-component plane.
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// The z-component plane.
    pub fn zs(&self) -> &[f64] {
        &self.z
    }

    /// Raw plane pointers for disjoint-index writes from worker blocks.
    ///
    /// Safety is delegated to the caller exactly as with
    /// [`SendPtr`][crate::par::SendPtr]: blocks must only touch disjoint
    /// index sets.
    pub(crate) fn ptrs(&mut self) -> Field3Ptr {
        Field3Ptr {
            x: SendPtr::new(self.x.as_mut_ptr()),
            y: SendPtr::new(self.y.as_mut_ptr()),
            z: SendPtr::new(self.z.as_mut_ptr()),
        }
    }

    /// Read-only raw plane pointers for unchecked reads from worker
    /// blocks. Used by the integrator fuse closures: a bounds check per
    /// read would keep a branch in the fused sweep's inner loop and
    /// defeat its vectorization.
    pub(crate) fn read_ptr(&self) -> Field3Read {
        Field3Read {
            x: self.x.as_ptr(),
            y: self.y.as_ptr(),
            z: self.z.as_ptr(),
        }
    }
}

/// Read-only raw plane pointers into a [`Field3`], for unchecked reads
/// from parallel block jobs. The underlying buffer must outlive every
/// use and must not be concurrently written at the indices read.
#[derive(Clone, Copy)]
pub(crate) struct Field3Read {
    x: *const f64,
    y: *const f64,
    z: *const f64,
}

// Safety: shared immutable reads from worker threads; the caller
// guarantees the buffer outlives the parallel region (the fuse closures
// borrow locals that outlive `team.run`).
unsafe impl Send for Field3Read {}
unsafe impl Sync for Field3Read {}

impl Field3Read {
    /// Reads the vector at `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and the buffer must not be concurrently
    /// mutated at `i`.
    #[inline(always)]
    pub(crate) unsafe fn get(&self, i: usize) -> Vec3 {
        Vec3::new(*self.x.add(i), *self.y.add(i), *self.z.add(i))
    }

    /// The raw component-plane pointers `(x, y, z)`; see
    /// [`Field3Ptr::planes`].
    #[inline]
    pub(crate) fn planes(&self) -> (*const f64, *const f64, *const f64) {
        (self.x, self.y, self.z)
    }
}

/// Raw plane pointers into a [`Field3`], for writes from parallel block
/// jobs where each block owns a disjoint index range.
#[derive(Clone, Copy)]
pub(crate) struct Field3Ptr {
    x: SendPtr<f64>,
    y: SendPtr<f64>,
    z: SendPtr<f64>,
}

impl Field3Ptr {
    /// Reads the vector at `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and not concurrently written by another
    /// block.
    #[inline]
    pub(crate) unsafe fn read(&self, i: usize) -> Vec3 {
        Vec3::new(*self.x.add(i), *self.y.add(i), *self.z.add(i))
    }

    /// Writes the vector at `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and owned exclusively by the calling block.
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, v: Vec3) {
        *self.x.add(i) = v.x;
        *self.y.add(i) = v.y;
        *self.z.add(i) = v.z;
    }

    /// The raw component-plane pointers `(x, y, z)`.
    ///
    /// Lets stage axpy loops run one plane at a time: three loops over
    /// three pointers each stay under the loop vectorizer's runtime
    /// alias-check budget, where a single interleaved loop over nine
    /// pointers does not.
    #[inline]
    pub(crate) fn planes(&self) -> (*mut f64, *mut f64, *mut f64) {
        (self.x.get(), self.y.get(), self.z.get())
    }
}

/// A batch of `k` same-geometry vector fields, stored K-innermost: the
/// value of member `s` at cell `i` lives at flat index `i * k + s` of a
/// single [`Field3`].
///
/// With the batch index innermost, one sweep over the shared
/// geometry/neighbour tables advances all `k` systems: the per-cell
/// stencil coefficients, neighbour-presence branches and CSR offsets are
/// loaded once per cell and the per-member arithmetic runs over `k`
/// consecutive lanes, which is the layout the loop vectorizer wants.
/// Interleaving and de-interleaving are pure permutations of `f64`
/// values (no arithmetic), so member round-trips are bitwise lossless —
/// the same determinism argument [`Field3::from_vec3s`] makes for the
/// SoA layout itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldBatch {
    data: Field3,
    k: usize,
}

impl FieldBatch {
    /// An all-zero batch of `k` fields with `cells` cells each.
    pub fn zeros(cells: usize, k: usize) -> Self {
        assert!(k > 0, "batch width must be at least 1");
        FieldBatch {
            data: Field3::zeros(cells * k),
            k,
        }
    }

    /// An empty batch (no cells) of nominal width `k` — the "feature
    /// absent" marker, mirroring empty `Field3` scratch buffers.
    pub fn empty(k: usize) -> Self {
        FieldBatch {
            data: Field3::zeros(0),
            k: k.max(1),
        }
    }

    /// Batch width K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cells per member.
    pub fn cells(&self) -> usize {
        self.data.len() / self.k
    }

    /// True when the batch holds no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying interleaved storage.
    pub fn data(&self) -> &Field3 {
        &self.data
    }

    /// Mutable access to the underlying interleaved storage.
    pub fn data_mut(&mut self) -> &mut Field3 {
        &mut self.data
    }

    /// The value of member `s` at cell `i`.
    #[inline]
    pub fn get(&self, i: usize, s: usize) -> Vec3 {
        self.data.get(i * self.k + s)
    }

    /// Overwrites the value of member `s` at cell `i`.
    #[inline]
    pub fn set(&mut self, i: usize, s: usize, v: Vec3) {
        self.data.set(i * self.k + s, v);
    }

    /// Interleaves `src` (one full member field) into member slot `s`.
    pub fn load_member<M: MagRead + ?Sized>(&mut self, s: usize, src: &M) {
        assert_eq!(src.len(), self.cells(), "member length mismatch");
        assert!(s < self.k, "member index out of range");
        for i in 0..src.len() {
            self.data.set(i * self.k + s, src.at(i));
        }
    }

    /// De-interleaves member `s` into `dst`.
    pub fn store_member(&self, s: usize, dst: &mut Field3) {
        assert_eq!(dst.len(), self.cells(), "member length mismatch");
        assert!(s < self.k, "member index out of range");
        for i in 0..dst.len() {
            dst.set(i, self.data.get(i * self.k + s));
        }
    }

    /// A zero-copy [`MagRead`] view of member `s` (for probes and
    /// snapshots, which are generic over `MagRead`).
    pub fn member(&self, s: usize) -> BatchMemberView<'_> {
        assert!(s < self.k, "member index out of range");
        BatchMemberView { batch: self, s }
    }

    /// Raw interleaved-plane pointers (see [`Field3::ptrs`]).
    pub(crate) fn ptrs(&mut self) -> Field3Ptr {
        self.data.ptrs()
    }

    /// Read-only raw interleaved-plane pointers (see
    /// [`Field3::read_ptr`]).
    pub(crate) fn read_ptr(&self) -> Field3Read {
        self.data.read_ptr()
    }
}

/// Read-only `Vec3`-shaped view of one member of a [`FieldBatch`].
#[derive(Clone, Copy)]
pub struct BatchMemberView<'a> {
    batch: &'a FieldBatch,
    s: usize,
}

impl MagRead for BatchMemberView<'_> {
    fn len(&self) -> usize {
        self.batch.cells()
    }
    #[inline]
    fn at(&self, i: usize) -> Vec3 {
        self.batch.get(i, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bitwise_lossless() {
        let v = vec![
            Vec3::new(0.1, -2.5e-17, 3e300),
            Vec3::new(-0.0, 1.0, f64::MIN_POSITIVE),
        ];
        let f = Field3::from_vec3s(&v);
        let back = f.to_vec();
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn get_set_add_and_fill() {
        let mut f = Field3::zeros(3);
        f.set(1, Vec3::new(1.0, 2.0, 3.0));
        f.add(1, Vec3::new(0.5, 0.5, 0.5));
        assert_eq!(f.get(1), Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(f.get(0), Vec3::ZERO);
        f.fill(Vec3::X);
        assert!(f.iter().all(|v| v == Vec3::X));
        assert_eq!(f.xs(), &[1.0; 3]);
        assert_eq!(f.zs(), &[0.0; 3]);
    }

    #[test]
    fn magread_views_agree() {
        let v = vec![Vec3::X, Vec3::Y, Vec3::Z];
        let f = Field3::from_vec3s(&v);
        let s: &[Vec3] = &v;
        let a: [Vec3; 3] = [Vec3::X, Vec3::Y, Vec3::Z];
        for i in 0..3 {
            assert_eq!(MagRead::at(&f, i), MagRead::at(s, i));
            assert_eq!(MagRead::at(&a, i), MagRead::at(&v, i));
        }
        assert_eq!(MagRead::len(&f), 3);
        assert!(!MagRead::is_empty(s));
    }

    #[test]
    fn batch_member_round_trip_is_bitwise_lossless() {
        let members = [
            vec![Vec3::new(0.1, -2.5e-17, 3e300), Vec3::new(-0.0, 1.0, 2.0)],
            vec![
                Vec3::new(5.0, 6.0, 7.0),
                Vec3::new(f64::MIN_POSITIVE, 0.0, -1.0),
            ],
            vec![Vec3::X, Vec3::Y],
        ];
        let mut batch = FieldBatch::zeros(2, 3);
        for (s, m) in members.iter().enumerate() {
            batch.load_member(s, m.as_slice());
        }
        for (s, m) in members.iter().enumerate() {
            let mut out = Field3::zeros(2);
            batch.store_member(s, &mut out);
            let view = batch.member(s);
            for (i, v) in m.iter().enumerate() {
                assert_eq!(out.get(i).x.to_bits(), v.x.to_bits());
                assert_eq!(out.get(i).z.to_bits(), v.z.to_bits());
                assert_eq!(view.at(i).y.to_bits(), v.y.to_bits());
            }
        }
        // K-innermost layout: cell 0 of members 0..3 are flat 0..3.
        assert_eq!(batch.data().get(1), members[1][0]);
        assert_eq!(batch.get(1, 2), members[2][1]);
        assert_eq!(batch.cells(), 2);
        assert_eq!(batch.k(), 3);
    }
}
