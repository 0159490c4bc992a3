#include "util/mapped_blob.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define REACH_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define REACH_HAS_MMAP 0
#endif

namespace reach {

std::byte* AllocatePages(size_t bytes) {
#if REACH_HAS_MMAP
  // Fresh anonymous pages rather than the malloc heap, whatever its
  // dynamic mmap threshold: they are faulted in only as they are written
  // and go back to the kernel on FreePages. A heap region can land past
  // freed-but-resident memory (Seal's build vectors) and raise peak RSS by
  // its whole size.
  void* addr = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return addr == MAP_FAILED ? nullptr : static_cast<std::byte*>(addr);
#else
  // The alignment mapped_blob.h promises; aligned_alloc requires the size
  // to be a multiple of it.
  constexpr size_t kAlignment = 64;
  const size_t padded = (bytes + kAlignment - 1) / kAlignment * kAlignment;
  return static_cast<std::byte*>(std::aligned_alloc(kAlignment, padded));
#endif
}

void FreePages(std::byte* data, size_t bytes) {
  if (data == nullptr) return;
#if REACH_HAS_MMAP
  ::munmap(data, bytes);
#else
  (void)bytes;
  std::free(data);
#endif
}

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::CreateOwned(
    size_t size, const std::function<Status(std::span<std::byte>)>& fill,
    std::string path) {
  std::byte* data = nullptr;
  if (size > 0) {
    data = AllocatePages(size);
    if (data == nullptr) {
      return Status::ResourceExhausted("cannot allocate " +
                                       std::to_string(size) + " bytes for " +
                                       (path.empty() ? "a blob" : path));
    }
  }
  // Owned from here on: the destructor frees `data` on every path.
  std::shared_ptr<MappedBlob> blob(new MappedBlob());
  blob->data_ = data;
  blob->size_ = size;
  blob->mapped_ = false;
  blob->path_ = std::move(path);
  REACH_RETURN_IF_ERROR(fill({data, size}));
  return std::shared_ptr<const MappedBlob>(std::move(blob));
}

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::ReadWholeFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0 || !in) {
    return Status::IOError("cannot determine size of " + path);
  }
  return CreateOwned(
      static_cast<size_t>(end),
      [&in, &path](std::span<std::byte> bytes) {
        in.read(reinterpret_cast<char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!in ||
            in.gcount() != static_cast<std::streamsize>(bytes.size())) {
          return Status::IOError("short read of " + path);
        }
        return Status::OK();
      },
      path);
}

#if REACH_HAS_MMAP
StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::MapWholeFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status =
        Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError(path + " is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const std::byte* data = nullptr;
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status =
          Status::IOError("mmap " + path + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    // Query-order page touches are random in file order; don't let
    // readahead drag the whole index in on the first lookup. Advisory
    // only — a failure changes performance, never correctness.
    (void)::madvise(addr, size, MADV_RANDOM);
    data = static_cast<const std::byte*>(addr);
  }
  // The mapping persists after close(2); keeping no fd means RELOAD can
  // replace the file on disk while old queries still read the old pages.
  ::close(fd);
  std::shared_ptr<MappedBlob> blob(new MappedBlob());
  blob->data_ = data;
  blob->size_ = size;
  blob->mapped_ = true;
  blob->path_ = path;
  return std::shared_ptr<const MappedBlob>(std::move(blob));
}
#endif  // REACH_HAS_MMAP

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::Open(
    const std::string& path) {
#if REACH_HAS_MMAP
  StatusOr<std::shared_ptr<const MappedBlob>> mapped = MapWholeFile(path);
  if (mapped.ok()) return mapped;
  // Graceful fallback: an exotic filesystem that refuses mmap still loads
  // (the caller can tell via mapped()). A missing file fails either way.
#endif
  return ReadWholeFile(path);
}

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::OpenOwned(
    const std::string& path) {
  return ReadWholeFile(path);
}

bool MappedBlob::PlatformSupportsMmap() { return REACH_HAS_MMAP != 0; }

MappedBlob::~MappedBlob() {
  // File mappings and owned regions alike: without mmap there are no file
  // mappings, and with it both are unmapped.
  FreePages(const_cast<std::byte*>(data_), size_);
}

}  // namespace reach
