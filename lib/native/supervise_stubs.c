/* Spawn stub for Native.Supervise.

   OCaml 5 forbids Unix.fork once other domains exist (the worker pool
   creates them), so the spawn leg lives here in C.  It uses vfork: the
   child borrows mmc's address space until execve instead of copying
   its page tables, so it only makes async-signal-safe calls (chdir,
   open, dup2, setrlimit, sigaction, _exit) and writes nothing the
   parent reads.  Everything the child needs (paths, envp, limits) is
   copied out of the OCaml heap before the vfork; the child never
   touches the runtime.  The signal discipline is glibc posix_spawn's:
   the caller blocks every signal around the vfork, so no handler of
   mmc's can run in the child on the borrowed memory; the child resets
   every caught signal to its default action and restores the mask
   before its own set-up; the parent restores the mask once vfork
   returns.

   The --timeout deadline is enforced inside the child: it arms an
   ITIMER_REAL timer before execve (interval timers survive exec), so
   SIGALRM's default action ends it on time while the parent sits in
   one blocking waitpid.  The stub reaps the child itself and decodes
   the POSIX wait status here, so a signal number never goes through
   OCaml's renumbering of signals. */

#define _GNU_SOURCE /* sigabbrev_np */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

static char *dup_string(value v)
{
  size_t n = caml_string_length(v);
  char *s = malloc(n + 1);
  if (s) { memcpy(s, String_val(v), n); s[n] = '\0'; }
  return s;
}

/* "SIGQUIT" for 3, or "signal N" where the C library cannot name it. */
static void signal_name(int sig, char *buf, size_t len)
{
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 32))
  const char *abbrev = sigabbrev_np(sig);
  if (abbrev) {
    snprintf(buf, len, "SIG%s", abbrev);
    return;
  }
#endif
  snprintf(buf, len, "signal %d", sig);
}

/* mmc_spawn_wait(exe, arg, dir, stdout_file, stderr_file, envp,
   max_bytes, timeout_s) -> Supervise.status.  [max_bytes] < 0: no
   address-space cap; [timeout_s] < 0 (or NaN): no wall-clock timer.
   The child execs [exe] with argv = {exe, arg, NULL} and the given
   environment, cwd [dir], streams redirected to the two files; any
   pre-exec failure exits 127 like a shell would.  Returns once the
   child is dead and reaped. */
CAMLprim value mmc_spawn_wait_native(value v_exe, value v_arg, value v_dir,
                                     value v_out, value v_err, value v_envp,
                                     value v_max_bytes, value v_timeout)
{
  CAMLparam5(v_exe, v_arg, v_dir, v_out, v_err);
  CAMLxparam1(v_envp);
  CAMLlocal2(res, field);
  char *exe = dup_string(v_exe);
  char *arg = dup_string(v_arg);
  char *dir = dup_string(v_dir);
  char *out = dup_string(v_out);
  char *err = dup_string(v_err);
  int nenv = Wosize_val(v_envp);
  char **envp = malloc(((size_t)nenv + 1) * sizeof(char *));
  long long max_bytes = Int64_val(v_max_bytes);
  double timeout_s = Double_val(v_timeout);
  struct itimerval deadline = {{0, 0}, {0, 0}};
  sigset_t all, saved;
  int i, ok = exe && arg && dir && out && err && envp;
  int wstatus, werr;
  pid_t pid, r;
  char name[32];

  if (envp) {
    for (i = 0; i < nenv; i++) {
      envp[i] = dup_string(Field(v_envp, i));
      if (!envp[i]) ok = 0;
    }
    envp[nenv] = NULL;
  }
  if (!ok) {
    caml_raise_out_of_memory();
  }
  if (timeout_s >= 0) {
    /* a zero it_value would disarm the timer: the shortest deadline is
       one microsecond */
    if (timeout_s > 1e9) timeout_s = 1e9;
    deadline.it_value.tv_sec = (time_t)timeout_s;
    deadline.it_value.tv_usec =
        (suseconds_t)((timeout_s - (double)deadline.it_value.tv_sec) * 1e6);
    if (deadline.it_value.tv_sec == 0 && deadline.it_value.tv_usec == 0)
      deadline.it_value.tv_usec = 1;
  }

  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, &saved);
  pid = vfork();
  if (pid == 0) {
    /* child: async-signal-safe calls only, then exec */
    int fd, sig;
    for (sig = 1; sig < NSIG; sig++) {
      struct sigaction sa;
      if (sigaction(sig, NULL, &sa) == 0 && sa.sa_handler != SIG_IGN &&
          sa.sa_handler != SIG_DFL) {
        sa.sa_handler = SIG_DFL;
        sigaction(sig, &sa, NULL);
      }
    }
    sigprocmask(SIG_SETMASK, &saved, NULL);
    if (chdir(dir) != 0) _exit(127);
    fd = open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 1) < 0) _exit(127);
    close(fd);
    fd = open(err, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 2) < 0) _exit(127);
    close(fd);
    if (max_bytes >= 0) {
      struct rlimit rl;
      rl.rlim_cur = (rlim_t)max_bytes;
      rl.rlim_max = (rlim_t)max_bytes;
      setrlimit(RLIMIT_AS, &rl);
    }
    if (timeout_s >= 0) {
      /* SIGALRM must kill: default action, unblocked (the forking thread's
         mask and an ignored disposition would survive the exec) */
      sigset_t alrm;
      sigemptyset(&alrm);
      sigaddset(&alrm, SIGALRM);
      signal(SIGALRM, SIG_DFL);
      sigprocmask(SIG_UNBLOCK, &alrm, NULL);
      if (setitimer(ITIMER_REAL, &deadline, NULL) != 0) _exit(127);
    }
    {
      char *argv[3];
      argv[0] = exe;
      argv[1] = arg;
      argv[2] = NULL;
      execve(exe, argv, envp);
    }
    _exit(127);
  }

  werr = errno;
  pthread_sigmask(SIG_SETMASK, &saved, NULL);
  for (i = 0; i < nenv; i++) free(envp[i]);
  free(envp);
  free(exe); free(arg); free(dir); free(out); free(err);
  if (pid < 0) caml_unix_error(werr, "vfork", Nothing);

  /* reap outside the runtime lock; an EINTR runs the OCaml signal
     handlers (which may raise) and waits again */
  for (;;) {
    caml_enter_blocking_section();
    r = waitpid(pid, &wstatus, 0);
    werr = errno;
    caml_leave_blocking_section();
    if (r == pid) break;
    if (werr != EINTR) caml_unix_error(werr, "waitpid", Nothing);
    caml_process_pending_actions();
  }

  /* the constructors of Supervise.status, in declaration order */
  if (WIFEXITED(wstatus)) {
    res = caml_alloc_small(1, 0); /* Exited */
    Field(res, 0) = Val_int(WEXITSTATUS(wstatus));
  } else if (timeout_s >= 0 && WTERMSIG(wstatus) == SIGALRM) {
    field = caml_copy_double(timeout_s);
    res = caml_alloc_small(1, 2); /* Timed_out */
    Field(res, 0) = field;
  } else {
    signal_name(WTERMSIG(wstatus), name, sizeof name);
    field = caml_copy_string(name);
    res = caml_alloc_small(2, 1); /* Signaled */
    Field(res, 0) = Val_int(WTERMSIG(wstatus));
    Field(res, 1) = field;
  }
  CAMLreturn(res);
}

CAMLprim value mmc_spawn_wait_bytecode(value *argv, int argn)
{
  (void)argn;
  return mmc_spawn_wait_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7]);
}
