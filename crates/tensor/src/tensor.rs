//! Owned dense tensors in `f32`.

use crate::shape::{Shape3, Shape4};

/// A dense `C × H × W` feature map stored row-major.
///
/// This is the unit of data flowing between CNN layers for a single sample.
///
/// ```
/// use sparsetrain_tensor::Tensor3;
/// let mut t = Tensor3::zeros(2, 4, 4);
/// t.set(1, 2, 3, 5.0);
/// assert_eq!(t.get(1, 2, 3), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    shape: Shape3,
    data: Vec<f32>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        let shape = Shape3::new(c, h, w);
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor from raw data in (C, H, W) row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != c * h * w`.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        let shape = Shape3::new(c, h, w);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// Creates a tensor by evaluating `f(c, y, x)` at every position.
    pub fn from_fn(c: usize, h: usize, w: usize, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let shape = Shape3::new(c, h, w);
        let mut data = Vec::with_capacity(shape.len());
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    data.push(f(ci, y, x));
                }
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape as a `(c, h, w)` tuple.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.shape.c, self.shape.h, self.shape.w)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.shape.c
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.shape.h
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.shape.w
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.shape.index(c, y, x)]
    }

    /// Sets the element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: f32) {
        let i = self.shape.index(c, y, x);
        self.data[i] = value;
    }

    /// Adds `value` to the element at `(c, y, x)`.
    #[inline]
    pub fn add_at(&mut self, c: usize, y: usize, x: usize, value: f32) {
        let i = self.shape.index(c, y, x);
        self.data[i] += value;
    }

    /// The underlying data slice in (C, H, W) row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One spatial row of one channel: `W` contiguous elements.
    ///
    /// Rows are the fundamental unit of the paper's 1-D convolution dataflow.
    pub fn row(&self, c: usize, y: usize) -> &[f32] {
        let start = self.shape.index(c, y, 0);
        &self.data[start..start + self.shape.w]
    }

    /// Mutable view of one spatial row of one channel.
    pub fn row_mut(&mut self, c: usize, y: usize) -> &mut [f32] {
        let start = self.shape.index(c, y, 0);
        let w = self.shape.w;
        &mut self.data[start..start + w]
    }

    /// One whole channel plane: `H × W` contiguous elements.
    pub fn channel(&self, c: usize) -> &[f32] {
        let start = self.shape.index(c, 0, 0);
        &self.data[start..start + self.shape.h * self.shape.w]
    }

    /// Consumes the tensor and returns its raw storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Element-wise addition of another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor3) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

/// A dense `F × C × KH × KW` weight tensor stored row-major.
///
/// ```
/// use sparsetrain_tensor::Tensor4;
/// let w = Tensor4::zeros(8, 4, 3, 3);
/// assert_eq!(w.shape(), (8, 4, 3, 3));
/// assert_eq!(w.kernel(2, 1).len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Creates a zero-filled weight tensor.
    pub fn zeros(f: usize, c: usize, kh: usize, kw: usize) -> Self {
        let shape = Shape4::new(f, c, kh, kw);
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor from raw data in (F, C, KH, KW) row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != f * c * kh * kw`.
    pub fn from_vec(f: usize, c: usize, kh: usize, kw: usize, data: Vec<f32>) -> Self {
        let shape = Shape4::new(f, c, kh, kw);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// Creates a tensor by evaluating `g(f, c, u, v)` at every position.
    pub fn from_fn(
        f: usize,
        c: usize,
        kh: usize,
        kw: usize,
        mut g: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let shape = Shape4::new(f, c, kh, kw);
        let mut data = Vec::with_capacity(shape.len());
        for fi in 0..f {
            for ci in 0..c {
                for u in 0..kh {
                    for v in 0..kw {
                        data.push(g(fi, ci, u, v));
                    }
                }
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape as an `(f, c, kh, kw)` tuple.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.shape.f, self.shape.c, self.shape.kh, self.shape.kw)
    }

    /// Number of filters (output channels).
    pub fn filters(&self) -> usize {
        self.shape.f
    }

    /// Number of input channels.
    pub fn channels(&self) -> usize {
        self.shape.c
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(f, c, u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn get(&self, f: usize, c: usize, u: usize, v: usize) -> f32 {
        self.data[self.shape.index(f, c, u, v)]
    }

    /// Sets the element at `(f, c, u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, f: usize, c: usize, u: usize, v: usize, value: f32) {
        let i = self.shape.index(f, c, u, v);
        self.data[i] = value;
    }

    /// Adds `value` to the element at `(f, c, u, v)`.
    #[inline]
    pub fn add_at(&mut self, f: usize, c: usize, u: usize, v: usize, value: f32) {
        let i = self.shape.index(f, c, u, v);
        self.data[i] += value;
    }

    /// One `KH × KW` kernel as a contiguous slice.
    pub fn kernel(&self, f: usize, c: usize) -> &[f32] {
        let start = self.shape.index(f, c, 0, 0);
        &self.data[start..start + self.shape.kh * self.shape.kw]
    }

    /// One kernel row (`KW` contiguous weights) — the dense operand of a
    /// 1-D convolution in the paper's dataflow.
    pub fn kernel_row(&self, f: usize, c: usize, u: usize) -> &[f32] {
        let start = self.shape.index(f, c, u, 0);
        &self.data[start..start + self.shape.kw]
    }

    /// The underlying data slice in (F, C, KH, KW) row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor3_roundtrip() {
        let mut t = Tensor3::zeros(2, 3, 4);
        t.set(1, 2, 3, 7.5);
        assert_eq!(t.get(1, 2, 3), 7.5);
        assert_eq!(t.get(0, 0, 0), 0.0);
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn tensor3_row_is_contiguous() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.row(1, 2), &[120.0, 121.0, 122.0, 123.0]);
    }

    #[test]
    fn tensor3_channel_view() {
        let t = Tensor3::from_fn(2, 2, 2, |c, y, x| (c * 4 + y * 2 + x) as f32);
        assert_eq!(t.channel(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn tensor3_from_vec_wrong_len_panics() {
        let _ = Tensor3::from_vec(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn tensor3_add_assign_and_scale() {
        let mut a = Tensor3::from_vec(1, 1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor3::from_vec(1, 1, 3, vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11.0, 16.5]);
    }

    #[test]
    fn tensor4_kernel_views() {
        let w = Tensor4::from_fn(2, 2, 2, 2, |f, c, u, v| (f * 8 + c * 4 + u * 2 + v) as f32);
        assert_eq!(w.kernel(1, 1), &[12.0, 13.0, 14.0, 15.0]);
        assert_eq!(w.kernel_row(1, 0, 1), &[10.0, 11.0]);
    }

    #[test]
    fn tensor4_set_get() {
        let mut w = Tensor4::zeros(3, 2, 3, 3);
        w.set(2, 1, 2, 2, -1.0);
        assert_eq!(w.get(2, 1, 2, 2), -1.0);
        w.add_at(2, 1, 2, 2, 0.5);
        assert_eq!(w.get(2, 1, 2, 2), -0.5);
    }

    #[test]
    fn tensor3_map_inplace() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        t.map_inplace(|v| v.max(0.0));
        assert_eq!(t.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }
}
