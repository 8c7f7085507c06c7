//! Gray-scale OT images.

use std::io::Write;
use std::path::Path;

/// A gray-scale optical-tomography image: one `u8` light-emanation
/// intensity per pixel, row-major. The paper's sensor produces
/// 2000×2000 images of the 250×250 mm process area (0.125 mm/px).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtImage {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl OtImage {
    /// Creates a black image.
    pub fn new(width: u32, height: u32) -> Self {
        OtImage {
            width,
            height,
            pixels: vec![0; width as usize * height as usize],
        }
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> u8) -> Self {
        let mut pixels = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        OtImage {
            width,
            height,
            pixels,
        }
    }

    /// Wraps a row-major pixel buffer; `None` unless it holds exactly
    /// `width × height` pixels.
    pub fn from_pixels(width: u32, height: u32, pixels: Vec<u8>) -> Option<Self> {
        let len = (width as usize).checked_mul(height as usize)?;
        (pixels.len() == len).then_some(OtImage {
            width,
            height,
            pixels,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y as usize * self.width as usize + x as usize]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: u32, y: u32, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y as usize * self.width as usize + x as usize] = value;
    }

    /// The raw row-major pixel buffer.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Total size in bytes.
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Mean intensity over the rectangle `[x, x+w) × [y, y+h)`,
    /// clipped to the image.
    pub fn region_mean(&self, x: u32, y: u32, w: u32, h: u32) -> f64 {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        let mut sum = 0u64;
        let mut n = 0u64;
        for yy in y..y1 {
            let row = yy as usize * self.width as usize;
            for xx in x..x1 {
                sum += self.pixels[row + xx as usize] as u64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Copies the rectangle `[x, x+w) × [y, y+h)` (clipped) into a
    /// new image.
    pub fn crop(&self, x: u32, y: u32, w: u32, h: u32) -> OtImage {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        let cw = x1.saturating_sub(x);
        let ch = y1.saturating_sub(y);
        let mut pixels = Vec::with_capacity(cw as usize * ch as usize);
        if cw > 0 {
            for row in self
                .pixels
                .chunks_exact(self.width as usize)
                .take(y1 as usize)
                .skip(y as usize)
            {
                pixels.extend_from_slice(&row[x as usize..x1 as usize]);
            }
        }
        OtImage {
            width: cw,
            height: ch,
            pixels,
        }
    }

    /// Writes the image as a binary PGM (P5) file — the format used
    /// to inspect Figure 4 artifacts.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_pgm(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        write!(file, "P5\n{} {}\n255\n", self.width, self.height)?;
        file.write_all(&self.pixels)?;
        Ok(())
    }

    /// Renders the image as coarse ASCII art (for terminal
    /// inspection), `cols` characters wide.
    pub fn to_ascii(&self, cols: u32) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let cols = cols.clamp(1, self.width.max(1));
        let step = (self.width / cols).max(1);
        let mut out = String::new();
        let mut y = 0;
        while y < self.height {
            let mut x = 0;
            while x < self.width {
                let mean = self.region_mean(x, y, step, step * 2);
                let idx = (mean / 255.0 * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
                x += step;
            }
            out.push('\n');
            y += step * 2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixel_access() {
        let mut img = OtImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.byte_len(), 12);
        assert_eq!(img.get(2, 1), 0);
        img.set(2, 1, 200);
        assert_eq!(img.get(2, 1), 200);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        OtImage::new(2, 2).get(2, 0);
    }

    #[test]
    fn from_fn_is_row_major() {
        let img = OtImage::from_fn(3, 2, |x, y| (y * 10 + x) as u8);
        assert_eq!(img.pixels(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn region_mean_and_clipping() {
        let img = OtImage::from_fn(4, 4, |x, _| if x < 2 { 0 } else { 100 });
        assert_eq!(img.region_mean(0, 0, 2, 4), 0.0);
        assert_eq!(img.region_mean(2, 0, 2, 4), 100.0);
        assert_eq!(img.region_mean(0, 0, 4, 4), 50.0);
        assert_eq!(img.region_mean(3, 3, 10, 10), 100.0, "clipped");
        assert_eq!(img.region_mean(4, 4, 1, 1), 0.0, "empty region");
    }

    #[test]
    fn crop_copies_the_rectangle() {
        let img = OtImage::from_fn(6, 6, |x, y| (x + y) as u8);
        let cropped = img.crop(2, 3, 2, 2);
        assert_eq!(cropped.width(), 2);
        assert_eq!(cropped.height(), 2);
        assert_eq!(cropped.get(0, 0), 5);
        assert_eq!(cropped.get(1, 1), 7);
        let clipped = img.crop(5, 5, 10, 10);
        assert_eq!((clipped.width(), clipped.height()), (1, 1));
    }

    #[test]
    fn crop_matches_per_pixel_copy() {
        let img = OtImage::from_fn(7, 5, |x, y| (x * 31 + y * 7) as u8);
        for (x, y, w, h) in [
            (0, 0, 7, 5),
            (1, 2, 3, 2),
            (6, 4, 3, 3),
            (7, 0, 1, 5),
            (0, 5, 2, 1),
            (9, 9, 1, 1),
        ] {
            let got = img.crop(x, y, w, h);
            let cw = (x + w).min(7).saturating_sub(x);
            let ch = (y + h).min(5).saturating_sub(y);
            let want = OtImage::from_fn(cw, ch, |cx, cy| img.get(x + cx, y + cy));
            assert_eq!(got, want, "crop({x}, {y}, {w}, {h})");
        }
    }

    #[test]
    fn from_pixels_checks_the_length() {
        let img = OtImage::from_pixels(3, 2, vec![0, 1, 2, 10, 11, 12]).unwrap();
        assert_eq!(img, OtImage::from_fn(3, 2, |x, y| (y * 10 + x) as u8));
        assert_eq!(OtImage::from_pixels(3, 2, vec![0; 5]), None);
        assert_eq!(OtImage::from_pixels(3, 2, vec![0; 7]), None);
        assert_eq!(
            OtImage::from_pixels(0, 4, Vec::new()).unwrap().byte_len(),
            0
        );
    }

    #[test]
    fn pgm_export_has_valid_header() {
        let img = OtImage::from_fn(8, 4, |x, y| (x * y) as u8);
        let path = std::env::temp_dir().join(format!("strata-ot-{}.pgm", std::process::id()));
        img.write_pgm(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P5\n8 4\n255\n"));
        assert_eq!(data.len(), 11 + 32);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ascii_rendering_scales() {
        let img = OtImage::from_fn(100, 100, |x, _| if x < 50 { 0 } else { 255 });
        let art = img.to_ascii(10);
        let lines: Vec<&str> = art.lines().collect();
        assert!(!lines.is_empty());
        assert!(lines[0].starts_with(' '));
        assert!(lines[0].ends_with('@'));
    }
}
