/* mm_loader — the main of the loader `mmc exec` runs every program with:
 * `mm_loader-<digest> mm_<key>.so`.  The loader is the runtime linked
 * once per toolchain configuration and exporting its symbols
 * (-rdynamic); a program is a shared object that links no library, so
 * loading it binds its references to this runtime, libc and libgomp,
 * and its own main runs as it would in an executable.  A program that
 * does not load fails with the runtime-failure exit, 70. */
#include <dlfcn.h>
#include <fcntl.h>
#include <link.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

/* Whether the file cuts a loadable segment short.  dlopen would map the
 * segment past the end of the file and die of SIGBUS at its first
 * access; a file it can read no header of is left to dlopen to report. */
static int cut_short(const char *path) {
  ElfW(Ehdr) e;
  ElfW(Phdr) p;
  struct stat st;
  int cut = 0, fd = open(path, O_RDONLY);
  if (fd >= 0 && fstat(fd, &st) == 0 &&
      pread(fd, &e, sizeof e, 0) == (ssize_t)sizeof e &&
      memcmp(e.e_ident, ELFMAG, SELFMAG) == 0)
    for (int i = 0; !cut && i < e.e_phnum; i++)
      cut = pread(fd, &p, sizeof p, e.e_phoff + i * sizeof p) !=
                (ssize_t)sizeof p ||
            (p.p_type == PT_LOAD &&
             p.p_offset + p.p_filesz > (ElfW(Off))st.st_size);
  if (fd >= 0) close(fd);
  return cut;
}

int main(int argc, char **argv) {
  if (argc != 2) {
    fprintf(stderr, "mm_loader: usage: mm_loader PROGRAM.so\n");
    return 70;
  }
  if (cut_short(argv[1])) {
    fprintf(stderr, "mm_loader: %s: file too short\n", argv[1]);
    return 70;
  }
  void *program = dlopen(argv[1], RTLD_NOW);
  int (*entry)(void) = program ? (int (*)(void))dlsym(program, "main") : NULL;
  if (!entry) {
    fprintf(stderr, "mm_loader: %s\n", dlerror());
    return 70;
  }
  return entry();
}
